"""Build and load the package's C kernels.

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
