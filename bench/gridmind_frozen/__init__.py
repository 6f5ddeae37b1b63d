"""A frozen copy of gridmind: the benchmark's yardstick for host speed.

These modules are ``src/gridmind`` as of commit 167f899 (without ``cli.py``
and the package exports), copied unchanged and never to be edited. The
benchmark runs one short seeded run of this copy between the units of work
it times (``run.Yardstick``) and divides the program's times by how slow the
copy ran against its nominal time. Both are the same kind of Python work
run moments apart, so a shared host that slows one slows the other by
nearly the same factor, while a change to ``src/gridmind`` leaves this copy,
and so the yardstick, where it is.
"""
