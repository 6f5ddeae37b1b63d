from collections import deque

import numpy as np
import pytest

from conftest import cell_of, flat_at, intended_next, make_world, neighbor_cells, reward
from gridmind.planning import (Goal, Intention, IntentionStatus,
                               PlanSearchParams, commit, count_paths,
                               plan_search, plan_site, split_cost,
                               suggest_goals)
from gridmind.suffering import Source, Terms, Timescale, events
from gridmind.values import ValueStore
from gridmind.world import Action, Relocation, apply_schedule, step


def test_count_paths_figure_values():
    assert count_paths(2, 5) == 32
    assert count_paths(2, 30) == 1_073_741_824


def test_count_paths_empty_path():
    assert count_paths(7, 0) == 1


def test_count_paths_rejects_bad_branching():
    with pytest.raises(ValueError):
        count_paths(0, 3)


def test_split_cost_footnote_values():
    assert split_cost(2, 20, 2) == 2_048
    assert split_cost(2, 20, 1) == 1_048_576


def test_split_cost_one_step_subproblems():
    for b in (2, 3, 7):
        for d in (4, 10):
            assert split_cost(b, d, d) == d * b


def test_split_cost_requires_divisibility():
    with pytest.raises(ValueError):
        split_cost(2, 20, 3)


# -- goal suggestion -----------------------------------------------------------


def grid_store(world, values):
    store = ValueStore()
    for cell, v in values.items():
        store.V[world.state_id(cell)] = v
    return store


def test_suggest_goals_empty_when_nothing_above_threshold():
    w = make_world()
    store = grid_store(w, {(1, 0): 0.2})
    assert suggest_goals(w, store, w.state_id((0, 0)), reach=2, threshold=0.5) == []


def test_suggest_goals_single_adjacent():
    w = make_world()
    store = grid_store(w, {(1, 0): 0.9})
    goals = suggest_goals(w, store, w.state_id((0, 0)), reach=1, threshold=0.5)
    assert len(goals) == 1
    assert goals[0].target == w.state_id((1, 0))
    assert goals[0].anticipated_value == 0.9


def test_suggest_goals_tie_breaks_by_state_id():
    w = make_world(width=8, height=1)
    # two states with the same value; ids 3 and 7 on the row
    store = grid_store(w, {(3, 0): 0.9, (7, 0): 0.9})
    goals = suggest_goals(w, store, w.state_id((5, 0)), reach=3, threshold=0.5)
    assert [g.target for g in goals] == [w.state_id((3, 0)), w.state_id((7, 0))]


def test_suggest_goals_excludes_current_state():
    w = make_world()
    store = grid_store(w, {(0, 0): 5.0, (1, 0): 1.0})
    goals = suggest_goals(w, store, w.state_id((0, 0)), reach=2, threshold=0.5)
    assert all(g.target != w.state_id((0, 0)) for g in goals)


def test_suggest_goals_respects_reach():
    w = make_world(width=10, height=1)
    store = grid_store(w, {(9, 0): 1.0})
    assert suggest_goals(w, store, w.state_id((0, 0)), reach=3, threshold=0.5) == []
    assert suggest_goals(w, store, w.state_id((0, 0)), reach=9, threshold=0.5) != []


def test_suggest_goals_returns_a_list_of_read_only_goals():
    w = make_world()
    store = grid_store(w, {(1, 0): 0.9})
    goals = suggest_goals(w, store, w.state_id((0, 0)), reach=1, threshold=0.5)
    assert type(goals) is list and goals
    with pytest.raises(AttributeError):
        goals[0].target = 0
    none = suggest_goals(w, store, w.state_id((0, 0)), reach=1, threshold=5.0)
    assert type(none) is list and not none


# -- plan search -----------------------------------------------------------------


def bfs_distance(world, start, goal_cell):
    seen = {start: 0}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        if cell == goal_cell:
            return seen[cell]
        for nxt in neighbor_cells(world, cell):
            if nxt not in seen:
                seen[nxt] = seen[cell] + 1
                queue.append(nxt)
    return None


def test_plan_search_already_there():
    w = make_world()
    goal = Goal(target=w.state_id((0, 0)), anticipated_value=1.0)
    assert plan_search(w, w.state_id((0, 0)), goal, ValueStore(), PlanSearchParams()) == []


def test_plan_search_corridor_matches_bfs():
    w = make_world(width=6, height=1)
    goal = Goal(target=w.state_id((5, 0)), anticipated_value=1.0)
    plan = plan_search(w, w.state_id((0, 0)), goal, ValueStore(),
                       PlanSearchParams(max_depth=12, heuristic_weight=0.0))
    assert plan is not None
    assert len(plan) == 5 == bfs_distance(w, (0, 0), (5, 0))
    assert all(a is Action.EAST for a in plan)


def test_plan_search_beyond_depth_returns_none():
    w = make_world(width=6, height=1)
    goal = Goal(target=w.state_id((5, 0)), anticipated_value=1.0)
    assert plan_search(w, w.state_id((0, 0)), goal, ValueStore(),
                       PlanSearchParams(max_depth=4)) is None


@pytest.mark.parametrize("seed", range(8))
def test_plan_search_optimal_with_zero_weight_no_cap(seed):
    rng = np.random.default_rng(seed)
    walls = {(int(x), int(y)) for x, y in rng.integers(0, 8, size=(12, 2))}
    walls -= {(0, 0), (7, 7)}
    w = make_world(width=8, height=8, walls=walls, start=(0, 0))
    params = PlanSearchParams(max_depth=30, branching_cap=5, heuristic_weight=0.0)
    goal = Goal(target=w.state_id((7, 7)), anticipated_value=0.0)
    plan = plan_search(w, w.state_id((0, 0)), goal, ValueStore(), params)
    dist = bfs_distance(w, (0, 0), (7, 7))
    if dist is None or dist > params.max_depth:
        assert plan is None
    else:
        assert plan is not None and len(plan) == dist


def test_value_guided_search_expands_no_more_than_uninformed():
    # Converged values on the corridor point straight at the goal.
    from gridmind.presets import corridor
    from gridmind.values import LearningParams, value_iteration, world_mdp

    w = corridor(12)
    store = value_iteration(world_mdp(w), LearningParams(gamma=0.9), tol=1e-10)
    goal_cell = (10, 0)  # state next to the consumable, highest V
    goal = Goal(target=w.state_id(goal_cell), anticipated_value=store.v(w.state_id(goal_cell)))
    informed, uninformed = {}, {}
    p_inf = PlanSearchParams(max_depth=15, heuristic_weight=1.0)
    p_uni = PlanSearchParams(max_depth=15, heuristic_weight=0.0)
    assert plan_search(w, w.state_id((0, 0)), goal, store, p_inf, stats=informed) is not None
    assert plan_search(w, w.state_id((0, 0)), goal, store, p_uni, stats=uninformed) is not None
    assert informed["expansions"] <= uninformed["expansions"]


# -- commitment --------------------------------------------------------------


def test_commit_empty_goal_list():
    w = make_world()
    assert commit(w, w.state_id((0, 0)), [], ValueStore(), PlanSearchParams()) is None


def test_commit_reachable_goal_executes_to_target(rng):
    w = make_world(width=5, height=1)
    store = grid_store(w, {(4, 0): 1.0})
    goals = suggest_goals(w, store, w.state_id((0, 0)), reach=4, threshold=0.5)
    intention = commit(w, w.state_id((0, 0)), goals, store, PlanSearchParams())
    assert intention is not None and intention.status is IntentionStatus.ACTIVE
    done = drive(intention, w, w.state_id((0, 0)), rng)
    assert done.status is IntentionStatus.REACHED


def test_commit_falls_through_to_next_ranked_goal():
    # Top-ranked goal is walled off; BFS oracle confirms, commit must skip it.
    walls = {(2, 2), (3, 1)}
    w = make_world(width=4, height=3, walls=walls, start=(0, 0))
    sealed = (3, 2)
    assert bfs_distance(w, (0, 0), sealed) is None
    open_cell = (2, 0)
    assert bfs_distance(w, (0, 0), open_cell) is not None
    store = grid_store(w, {sealed: 0.9, open_cell: 0.5})
    goals = [Goal(w.state_id(sealed), 0.9), Goal(w.state_id(open_cell), 0.5)]
    intention = commit(w, w.state_id((0, 0)), goals, store, PlanSearchParams())
    assert intention is not None
    assert intention.goal.target == w.state_id(open_cell)


# -- execution ----------------------------------------------------------------


def drive(intention, world, s, rng, check_interrupt=None):
    """Step an Active intention through the world until it is terminal, the
    way the agent's loop does: apply the schedule and re-key the state,
    consult check_interrupt(state) before each action (True aborts with the
    rest of the plan unissued), act, and advance the intention."""
    t = 0
    while intention.status is IntentionStatus.ACTIVE:
        if check_interrupt is not None and check_interrupt(s):
            intention.abort()
            break
        cell = cell_of(world, s)
        apply_schedule(world, t)
        s = world.state_id(cell)  # re-key after any epoch bump
        s2, r, _ = step(world, s, intention.next_action(), rng)
        intention.advance(world.flat_of(s2), s2, r)
        s = s2
        t += 1
    return intention


def make_intention(world, start_cell, plan):
    cells = []
    cur = start_cell
    for a in plan:
        cur = intended_next(world, cur, a)
        cells.append(cur)
    goal = Goal(target=world.state_id(cells[-1]), anticipated_value=1.0)
    return Intention(goal=goal, plan=list(plan), path=[flat_at(world, c) for c in cells])


def test_execute_deterministic_plan_reaches(rng):
    w = make_world(width=6, height=1)
    intention = make_intention(w, (0, 0), [Action.EAST] * 5)
    done = drive(intention, w, w.state_id((0, 0)), rng)
    assert done.status is IntentionStatus.REACHED
    assert done.cursor == 5


def test_execute_interrupt_aborts_mid_plan(rng):
    w = make_world(width=6, height=1)
    intention = make_intention(w, (0, 0), [Action.EAST] * 5)
    fired = {"n": 0}

    def check(state):
        fired["n"] += 1
        return fired["n"] == 3  # fires before the third action

    done = drive(intention, w, w.state_id((0, 0)), rng, check_interrupt=check)
    assert done.status is IntentionStatus.ABORTED
    assert done.cursor == 2
    assert len(done.plan) - done.cursor == 3  # three actions unissued


def test_execute_relocation_fails_on_arrival(rng):
    w = make_world(width=6, height=1,
                   objects={"g": reward("g", 1.0, (5, 0))},
                   schedule=(Relocation(2, "g", (0, 0)),))
    intention = make_intention(w, (0, 0), [Action.EAST] * 5)
    drive(intention, w, w.state_id((0, 0)), rng)
    # every cell matched the prediction, but the goal belongs to a dead epoch
    assert intention.status is IntentionStatus.FAILED
    assert intention.cursor == 5


def test_execute_slip_divergence_fails(rng):
    w = make_world(width=6, height=3, slip_probability=1.0, start=(0, 1))
    intention = make_intention(w, (0, 1), [Action.EAST] * 3)
    done = drive(intention, w, w.state_id((0, 1)), rng)
    assert done.status is IntentionStatus.FAILED
    assert done.cursor == 1


# -- plan frustration ------------------------------------------------------------


def terminal_intention(status, anticipated=1.0, obtained=0.0):
    goal = Goal(target=0, anticipated_value=anticipated)
    return Intention(goal=goal, plan=[Action.EAST], status=status,
                     path=[1], obtained=obtained)


def plan_frustration(intention):
    """The plan event of a terminal intention under identity terms."""
    [ev] = events((plan_site(intention),), Terms())
    return ev


def test_plan_frustration_reached_no_loss():
    i = terminal_intention(IntentionStatus.REACHED, anticipated=1.0, obtained=1.0)
    ev = plan_frustration(i)
    assert ev.frustration == 0.0
    assert ev.timescale is Timescale.PLAN and ev.source is Source.PLAN_LOSS


def test_plan_frustration_failed_full_loss():
    i = terminal_intention(IntentionStatus.FAILED, anticipated=1.0, obtained=0.7)
    ev = plan_frustration(i)
    assert ev.expected == 1.0 and ev.obtained == 0.0
    assert ev.frustration == 1.0


def test_plan_frustration_reached_partial():
    i = terminal_intention(IntentionStatus.REACHED, anticipated=1.0, obtained=0.4)
    ev = plan_frustration(i)
    assert ev.frustration == pytest.approx(0.6)


def test_plan_frustration_requires_terminal():
    i = terminal_intention(IntentionStatus.FAILED)
    i.status = IntentionStatus.ACTIVE
    with pytest.raises(ValueError):
        plan_site(i)
