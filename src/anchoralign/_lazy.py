"""Imports deferred to first use: numpy, and names a module re-exports.

`filter`, `stats` and the argument parser never touch an array, so they start
without paying for numpy's import. Modules that use arrays take `np` from
here in place of `import numpy as np`; no module-level code may touch it.
The package and the CLI name what they re-export in a table, and
lazy_names imports each name's module when the name is first read.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from typing import Callable, Mapping


def lazy_import(name: str) -> types.ModuleType:
    """The module `name`, executed on its first attribute access.

    This is the LazyLoader recipe of the importlib documentation. A module
    already imported is returned as it is; one that is not installed raises
    ModuleNotFoundError here, as a plain import would.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


def lazy_names(
    module_name: str, sources: Mapping[str, tuple[str, ...]]
) -> Callable[[str], object]:
    """A PEP 562 module `__getattr__` for module_name, re-exporting the
    names in `sources`, which maps a sibling module to the names taken
    from it.

    The first read of a name imports its module and binds the name in
    module_name, so later reads never reach the hook, and a name bound
    there first, by an assignment or a patch, is the one every later read
    gets. Any other name raises AttributeError.
    """
    home = {name: source for source, names in sources.items() for name in names}

    def __getattr__(name: str) -> object:
        source = home.get(name)
        if source is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        module = sys.modules[module_name]
        value = getattr(importlib.import_module(f".{source}", module.__package__), name)
        setattr(module, name, value)
        return value

    return __getattr__


np = lazy_import("numpy")
