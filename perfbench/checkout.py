"""Where the benchmark finds the library, and facts about the checkout.

The benchmark always imports ``kmsteiner`` from the ``src/`` directory of
the checkout it lives in, never from an installed copy, so it measures
exactly the code beside it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
TEMP_ROOT = ROOT / ".bench_tmp"
OUTPUT = ROOT / ".bench_out"


class MissingSource(RuntimeError):
    """The checkout lacks the library sources or fixtures."""


def import_library():
    """Import kmsteiner from this checkout's src/ and return the package."""
    package = SRC / "kmsteiner"
    if not (package / "__init__.py").is_file() or not FIXTURES.is_dir():
        raise MissingSource(f"{ROOT} holds no kmsteiner checkout (src/kmsteiner, fixtures/)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kmsteiner

    if Path(kmsteiner.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"kmsteiner was imported from {kmsteiner.__file__}, not {package}")
    return kmsteiner


def src_lines() -> int:
    """Line count of the library sources (src/**/*.py)."""
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def commit() -> str:
    """Commit of the checkout read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"
