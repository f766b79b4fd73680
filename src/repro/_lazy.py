"""Package exports that load on first use (PEP 562).

A package ``__init__`` that imports every subsystem makes each process
pay for all of them, whichever it runs: a directory build would load the
daemon, the fault harness and the evaluator.  Instead, each public
package names its exports in a table and resolves a name the first time
it is read, so ``from repro import CutoffBuilder`` imports only the
modules that class needs.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__)`` pair for the package whose globals
    are ``namespace``: ``table`` maps a module to the names it provides.
    A resolved name is stored in ``namespace``, so it is looked up once.
    Any other name raises ``AttributeError``, which is what lets
    ``from package import submodule`` fall through to the import
    system."""
    package = namespace["__name__"]
    home = {name: module for module, names in table.items()
            for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
