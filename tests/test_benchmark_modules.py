"""Every benchmark module imports against the current API (tier 1).

Tier 1 collects only ``tests/``, so removing or renaming an entry point
could break a ``benchmarks/test_bench_*.py`` module without any tier-1
failure.  Importing each module, without running its benchmarks,
catches that here.
"""

import glob
import importlib
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_benchmark_module_imports():
    paths = sorted(glob.glob(os.path.join(REPO, "benchmarks",
                                          "test_bench_*.py")))
    assert paths, "no benchmark modules found"
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        importlib.import_module(f"benchmarks.{name}")
