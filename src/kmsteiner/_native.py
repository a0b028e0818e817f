"""Build, cache and load the package's C kernels.

``kernel(source)`` returns the ctypes library of one of the kernel sources
beside this module (``_refine.c``, ``_xcc.c``) with the prototypes of its
functions declared.  The first call in a process builds or reuses the
library and later calls return the same object, so a kernel is loaded on
first use and never at import.

``load(source)`` compiles a C file with ``gcc -O2 -shared -fPIC`` into the
``__pycache__`` directory beside it, named after the SHA-256 of the
source, and loads it with ctypes.  A library already built from the same
source is reused.  The file is written under a temporary name and
published with ``os.replace``, so concurrent processes never load a
half-written library.  Without gcc, ``load`` raises ImportError.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_I, _I64, _P = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p

# per kernel source: function -> (argument types, return type)
_PROTOTYPES = {
    "_refine.c": {
        "kms_refine": ((_I, _P, _P, _P, _P, _I, _P), _I),
        "kms_target_cell": ((_I, _P), _I),
        "kms_individualize": ((_I, _P, _P, _P, _P, _I, _I, _P), _I),
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


def load(source: Path) -> ctypes.CDLL:
    source = Path(source)
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    cache = source.parent / "__pycache__"
    library = cache / f"{source.stem}.{digest}.so"
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
