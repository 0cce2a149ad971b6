"""Package re-exports that load on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules
imports every one of them, and everything they import, the first time
anything under the package is imported.  For :mod:`repro.stonne` that
meant ``import repro.stonne.stats`` also loaded the functional
simulator and numpy.  :func:`lazy_exports` keeps the re-exports but
defers each submodule to the first lookup of a name it defines, so
``from repro.stonne import Stonne`` still works while a command that
only reads cached statistics never imports numpy.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of a package
    whose public names load on first use.

    ``exports`` maps each submodule (relative to ``package``) to the
    public names it defines.  A resolved name is stored on the package,
    so only its first lookup goes through ``__getattr__``.
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
