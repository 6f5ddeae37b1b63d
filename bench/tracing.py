"""Spans and counts around gridmind's public functions, installed from outside.

Nothing in ``src/`` knows about the benchmark. A function is observed by
rebinding every attribute that names it: module globals (including the
``from .x import f`` copies in other gridmind modules, since those are
what ``agent``, ``replay``, ``planning`` and ``harness`` call through)
and class attributes for methods. ``Rebinding.restore`` puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute path) of every traced function.
TRACED = (
    ("agent.step_once", "agent", "Agent.step_once"),
    ("rng.per_step", "rng", "per_step"),
    ("world.step", "world", "step"),
    ("world.observe", "world", "observe"),
    ("world.apply_schedule", "world", "apply_schedule"),
    ("affect.check_interrupts", "affect", "check_interrupts"),
    ("affect.threat_level", "affect", "threat_level"),
    ("affect.sweep_threshold", "affect", "sweep_threshold"),
    ("planning.suggest_goals", "planning", "suggest_goals"),
    ("planning.plan_search", "planning", "plan_search"),
    ("planning.commit", "planning", "commit"),
    ("values.td_update", "values", "td_update"),
    ("values.epsilon_greedy", "values", "epsilon_greedy"),
    ("replay.wandering_step", "replay", "wandering_step"),
    ("replay.priorities", "replay", "priorities"),
    ("replay.sample_from", "replay", "sample_from"),
    ("replay.ReplayBuffer.append", "replay", "ReplayBuffer.append"),
    ("suffering.Ledger.record", "suffering", "Ledger.record"),
    ("suffering.make_event", "suffering", "make_event"),
    ("interventions.apply", "interventions", "apply"),
    ("harness.run", "harness", "run"),
    ("harness.config_from_dict", "harness", "config_from_dict"),
    ("harness.summarize", "harness", "summarize"),
    ("presets.get_world", "presets", "get_world"),
)


def resolve(module: str, path: str):
    """The function object that ``gridmind.<module>.<path>`` names now."""
    obj = importlib.import_module(f"gridmind.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Rebinding:
    """Replaces functions with wrappers wherever gridmind binds them."""

    def __init__(self):
        self._saved = []

    def wrap(self, module: str, path: str, make_wrapper):
        """Bind ``make_wrapper(original)`` in place of ``gridmind.<module>.<path>``."""
        original = resolve(module, path)
        wrapper = make_wrapper(original)
        if "." in path:
            owner_path, attr = path.rsplit(".", 1)
            self._set(resolve(module, owner_path), attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name == "gridmind" or name.startswith("gridmind."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


# -- hooks: count what a call did, where it happened -------------------------


def _plan_search(counts, fn, args, kwargs):
    """Inject a ``stats`` dict when the caller passed none and add up the
    expansions it reports."""
    if len(args) > 5:
        stats = args[5]
        if stats is None:
            stats = {}
            args = args[:5] + (stats,) + args[6:]
    else:
        stats = kwargs.get("stats")
        if stats is None:
            stats = kwargs["stats"] = {}
    result = fn(*args, **kwargs)
    counts["planning.plan_search.expansions"] += stats.get("expansions", 0)
    return result


def _suggest_goals(counts, fn, args, kwargs):
    goals = fn(*args, **kwargs)
    counts["planning.suggest_goals.hits"] += bool(goals)
    return goals


def _commit(counts, fn, args, kwargs):
    intention = fn(*args, **kwargs)
    goals = args[2] if len(args) > 2 else kwargs["goals"]
    counts["planning.commit.with_goals"] += bool(goals)
    counts["planning.commit.intentions"] += intention is not None
    return intention


def _priorities(counts, fn, args, kwargs):
    pri = fn(*args, **kwargs)
    counts["replay.priorities.items"] += len(pri)
    return pri


HOOKS = {
    "planning.plan_search": _plan_search,
    "planning.suggest_goals": _suggest_goals,
    "planning.commit": _commit,
    "replay.priorities": _priorities,
}


class Tracer:
    """Records one span per traced call, in memory, plus per-name self time,
    call counts and hook counts.

    A span is (name, start, end, parent), its parent being the innermost
    traced call open when it started. Self time is a span's duration minus
    the durations of its direct children; the process is single-threaded,
    so children nest inside their parent.
    """

    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts = Counter()
        self._open = []   # [span index, ns covered by children] per open span
        self._binding = Rebinding()

    def __enter__(self):
        for nid, (name, module, path) in enumerate(TRACED):
            self._binding.wrap(module, path,
                               lambda fn, nid=nid, name=name: self._wrapper(nid, fn, HOOKS.get(name)))
        return self

    def __exit__(self, *exc):
        self._binding.restore()
        return False

    def _wrapper(self, nid, fn, hook):
        clock = time.perf_counter_ns
        opened = self._open
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        self_ns, calls, counts = self.self_ns, self.calls, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            frame = [idx, 0]
            names.append(nid)
            parents.append(opened[-1][0] if opened else -1)
            ends.append(0)
            opened.append(frame)
            start = clock()
            starts.append(start)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(counts, fn, args, kwargs)
            finally:
                end = clock()
                opened.pop()
                ends[idx] = end
                duration = end - start
                self_ns[nid] += duration - frame[1]
                calls[nid] += 1
                if opened:
                    opened[-1][1] += duration

        return functools.update_wrapper(traced, fn)

    def layer_metrics(self) -> dict:
        """``<name>.self_s`` and ``<name>.calls`` for every traced name, plus
        the hook counts and the ratios built from them."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.self_s"] = self.self_ns[nid] / 1e9
            out[f"{name}.calls"] = self.calls[nid]
        c = self.counts
        out["replay.priorities.items"] = c["replay.priorities.items"]
        out["planning.plan_search.expansions"] = c["planning.plan_search.expansions"]
        out["planning.suggest_goals.hit_ratio"] = _ratio(
            c["planning.suggest_goals.hits"], out["planning.suggest_goals.calls"])
        out["planning.commit.success_ratio"] = _ratio(
            c["planning.commit.intentions"], c["planning.commit.with_goals"])
        return out

    def write_spans(self, path):
        """Write every span as ``name,start_ns,end_ns,parent`` (times relative
        to the first span, parent a row index or -1)."""
        origin = self.span_start[0] if self.span_start else 0
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for nid, start, end, parent in zip(self.span_name, self.span_start,
                                               self.span_end, self.span_parent):
                fh.write(f"{self.names[nid]},{start - origin},{end - origin},{parent}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
