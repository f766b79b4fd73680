"""The repository benchmark: ``python -m bench``.

Drives the build system only through its two user-facing front ends --
``python -m repro.cm`` subprocesses and the ``--serve`` stdio daemon --
on a generated paper-scale project, checks every output against an
oracle computed from the project's shape, and prints every metric by
name with its unit.  See ``bench/README.md``.

Importing this package has no side effects: the trace shim
(``python -m bench.shim``) imports it inside every traced subprocess.
"""

import os

#: The checkout root (the directory holding ``bench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where the system under test lives; the benchmark runs it from source.
SRC = os.path.join(ROOT, "src")

#: Scratch space for generated projects and results (git-ignored).
WORK = os.path.join(ROOT, ".bench_work")
