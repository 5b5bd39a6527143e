"""The one place the package imports scipy: single compiled extensions.

The BEM needs scipy's LAPACK extension and the root solves need its Brent
routine, but neither needs the subpackage around it, linalg or optimize,
which takes many times longer to import than the one file.
"""

from __future__ import annotations

import functools
import importlib
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec, spec_from_file_location


@functools.cache
def extension(subpackage: str, name: str):
    """scipy's compiled module `name` of `subpackage`, e.g. ("linalg", "_flapack").

    Loaded on first use, once per process, from its file in scipy's
    <subpackage> directory, without importing the subpackage. Bare scipy is
    imported first: it sets up the paths of the libraries the extension
    links. The module is registered under its canonical name, so a later
    import of the subpackage reuses it, and one the subpackage loaded
    already is reused here. A scipy without that file serves the module
    through the regular import.
    """
    import scipy

    canonical = f"scipy.{subpackage}.{name}"
    if canonical in sys.modules:
        return sys.modules[canonical]
    found = PathFinder.find_spec(
        name, [f"{root}/{subpackage}" for root in scipy.__path__])
    if found is None:
        return importlib.import_module(canonical)
    spec = spec_from_file_location(canonical, found.origin)
    module = module_from_spec(spec)
    sys.modules[canonical] = module
    spec.loader.exec_module(module)
    return module
