"""Operads, braces and exact cohomology for finite-dimensional Loday algebras.

Each submodule but ``cli`` is put in ``sys.modules`` here by the stdlib
``importlib.util.LazyLoader``, and its source is compiled and run on the
first read of one of its attributes.  So ``import lodayops`` compiles only
this file, and a command compiles only the modules whose names it reads:
``verify-system`` never compiles ``algebra``, ``cohomology``, ``linalg`` or
``identities``.  The names re-exported here are read from their modules on
first use (PEP 562).  ``cli`` is left to the import system, since
``python -m lodayops.cli`` must not find it in ``sys.modules`` already.

A lazy module holds no lock on Python 3.10 and 3.11, so every module is
loaded on the main thread: ``verify_system``'s ``workers`` starts no
thread, and the identity suite forks only after ``identities`` and
``cochains`` are loaded.  A forked child has one thread, and a module it
reads first (``cohomology``, at its first ``diff_d``) loads in that child.
"""

import sys as _sys
from importlib.util import (LazyLoader as _LazyLoader,
                            find_spec as _find_spec,
                            module_from_spec as _module_from_spec)

# the names re-exported here, by the submodule that defines them
_EXPORTS = {
    "algebra": ("AlgebraSpec", "multiply", "verify_axioms"),
    "algfile": ("load_algebra", "parse_algebra", "serialize_algebra"),
    "cochains": ("Cochain", "MultContext", "bracket", "brace", "circ",
                 "canonical_multiplication", "delta_trias", "diff_d", "dot",
                 "gamma", "identity_cochain"),
    "cohomology": ("check_g_algebra", "coboundary_preimage",
                   "cohomology_dims", "cocycle_representatives",
                   "matrix_of_d"),
    "fields": ("PrimeField", "QQ"),
    "params": ("enumerate_params",),
    "preoperadic": ("r_part", "r_zero", "verify_system"),
}


def _lazy(name):
    """Register submodule ``name``, to be loaded on its first read."""
    spec = _find_spec("%s.%s" % (__name__, name))
    spec.loader = _LazyLoader(spec.loader)
    module = _module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in (
    "algebra", "algfile", "cochains", "cohomology", "fields", "identities",
    "linalg", "params", "preoperadic", "trees"))


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *(n for names in _EXPORTS.values()
                                 for n in names)})


__version__ = "0.1.0"
