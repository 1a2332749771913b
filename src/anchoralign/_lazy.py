"""numpy, imported on the first attribute access instead of at import.

`filter`, `stats` and the argument parser never touch an array, so they start
without paying for numpy's import. Modules that use arrays take `np` from
here in place of `import numpy as np`; no module-level code may touch it.
"""

from __future__ import annotations

import importlib.util
import sys
import types


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


np = lazy_import("numpy")
