"""Build, cache and load the package's C kernels.

``kernel(source)`` returns the ctypes library of one of the kernel sources
beside this module (``_orbits.c``, ``_refine.c``, ``_xcc.c``) with the
prototypes of its functions declared.  The first call in a process
builds or reuses the library and later calls return the same object, so
a kernel is loaded on first use and never at import.

The kernels and their entry points:

- ``_orbits.c``: the orderly orbit search of ``orbitgen``
  (``kms_orbits_new``/``run``/``free``);
- ``_xcc.c``: the exact-cover search of ``xcc.solve``
  (``kms_xcc_new``/``run``/``free``);
- ``_refine.c``: everything ``designs`` does per design: the canonizer's
  search ``kms_canon`` and its refinement steps, expansion
  (``kms_expand``) and the Steiner check (``kms_steiner_count``).

``load(source)`` compiles a C file with ``gcc -O2 -shared -fPIC`` to
``library_path(source)``: the ``__pycache__`` directory beside it, named
after the SHA-256 of the source, and loads it with ctypes.  A library
already built from the same source is reused, whatever flags built it
(the sanitizer tests place their builds there).  The file is written
under a temporary name and published with ``os.replace``, so concurrent
processes never load a half-written library.  Without gcc, ``load``
raises ImportError.

``intake`` is the one intake rule of the package's five integer array types.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_I, _I64, _P = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p

# kms_canon's callback, int (*)(const int32_t *perm)
AUT_CALLBACK = ctypes.CFUNCTYPE(_I, _P)


# per kernel source: function -> (argument types, return type)
_PROTOTYPES = {
    "_orbits.c": {
        "kms_orbits_new": ((_I, _I, _I, _I, _P, _P), _P),
        "kms_orbits_run": ((_P, _P, _P, _I64), _I),
        "kms_orbits_free": ((_P,), None),
    },
    "_refine.c": {
        "kms_refine": ((_I, _I, _P, _P, _P, _P, _I, _P), _I),
        "kms_target_cell": ((_I, _P), _I),
        "kms_individualize": ((_I, _I, _P, _P, _P, _P, _I, _I, _P), _I),
        "kms_canon": ((_I, _I, _P, _P, _P, _I, _I64, AUT_CALLBACK, _P, _P, _P), _I),
        "kms_expand": ((_I, _I, _I64, _P, _P, _I, _P, _I64, _P, _P, _P), _I64),
        "kms_steiner_count": ((_I, _I, _I64, _I, _P, _I, _I64, _P, _P, _I64), _I),
    },
    "_xcc.c": {
        "kms_xcc_new": ((_I, _I, _I64, _P, _P, _P, _P, _P, _I64, _P, _P), _P),
        "kms_xcc_run": ((_P,), _I),
        "kms_xcc_free": ((_P,), None),
    },
}

_loaded: dict = {}  # source name -> library, filled on first use


def kernel(source: str) -> ctypes.CDLL:
    """The library built from the kernel source named ``source``."""
    lib = _loaded.get(source)
    if lib is None:
        lib = load(Path(__file__).with_name(source))
        for name, (argtypes, restype) in _PROTOTYPES[source].items():
            f = getattr(lib, name)
            f.argtypes, f.restype = argtypes, restype
        _loaded[source] = lib
    return lib


def library_path(source: Path) -> Path:
    """Where ``load`` keeps the library built from ``source``."""
    source = Path(source)
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    return source.parent / "__pycache__" / f"{source.stem}.{digest}.so"


def load(source: Path) -> ctypes.CDLL:
    source = Path(source)
    library = library_path(source)
    cache = library.parent
    if not library.exists():
        gcc = shutil.which("gcc")
        if gcc is None:
            raise ImportError(f"building the C kernel {source.name} needs gcc, found none on PATH")
        cache.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=f"{source.stem}.", suffix=".tmp")
        os.close(fd)
        try:
            proc = subprocess.run(
                [gcc, "-O2", "-shared", "-fPIC", "-o", tmp, str(source)],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode:
                raise ImportError(f"gcc failed on {source.name}:\n{proc.stderr}")
            os.replace(tmp, library)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(library))


def integers(values, message: str) -> np.ndarray:
    """``values`` as an array; ValueError(message) if it is ragged, holds a
    value and is not of integer dtype, or holds a bool (numpy casts a bool
    beside an integer to an integer)."""
    try:
        a = np.asarray(values)
    except ValueError:
        raise ValueError(message) from None
    if a.size and (a.dtype.kind not in "iu" or not isinstance(values, np.ndarray) and not
                   {bool, np.bool_}.isdisjoint(map(type, np.asarray(values, dtype=object).flat))):
        raise ValueError(message)
    return a


def intake(obj, fields: dict, values, message: str, check) -> None:
    """Set the fields of ``obj`` from ``values``, array-likes, each taken by
    ``integers``, so that what it refuses is refused before any cast.
    ``check`` gets them as arrays in their own dtypes, raises ValueError on
    what the type refuses, so that no cast wraps, and returns one array per
    field (None: the arrays as given); field ``name`` is set to its array
    cast to ``fields[name]``, not copied if it already has that dtype and C
    order, and made read-only."""
    arrays = [integers(a, message) for a in values]
    for (name, dtype), a in zip(fields.items(), check(*arrays) or arrays):
        a = np.ascontiguousarray(a, dtype)
        a.flags.writeable = False
        object.__setattr__(obj, name, a)
