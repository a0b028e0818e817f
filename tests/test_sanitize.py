"""The kernel tests against the three C kernels built with AddressSanitizer
and UndefinedBehaviorSanitizer.  Opt-in, and slow:

    python -m pytest -m sanitize

The kernel sources of a copy of the package are built with SANITIZE_FLAGS
to the paths where ``_native.load`` looks for its own builds, so the copy
loads them instead.  The kernel tests then run against the copy in a child
pytest with the sanitizer runtimes preloaded; ``-fno-sanitize-recover``
turns any undefined behaviour into a failure.  Skips without gcc or its
sanitizer runtimes.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kmsteiner
from kmsteiner import _native

SANITIZE_FLAGS = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined"]
TESTS = Path(__file__).parent
KERNEL_TESTS = [
    "test_xcc.py",
    "test_canonizer.py",
    "test_orbitgen.py",
    "test_designs.py",
    "test_symbreak.py",
    "test_acceptance.py::test_criterion_4_xcc_fuzz",
]


def _runtime(gcc, name):
    """The path of gcc's runtime library name, or None."""
    proc = subprocess.run([gcc, f"-print-file-name={name}"], capture_output=True, text=True)
    path = proc.stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


@pytest.mark.sanitize
def test_kernel_tests_pass_under_sanitizers(tmp_path, child_env):
    gcc = shutil.which("gcc")
    runtimes = [gcc and _runtime(gcc, name) for name in ("libasan.so", "libubsan.so")]
    if not all(runtimes):
        pytest.skip("needs gcc with its ASan and UBSan runtimes")
    package = tmp_path / "src" / "kmsteiner"
    shutil.copytree(Path(kmsteiner.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (package / "__pycache__").mkdir()
    for source in sorted(_native._PROTOTYPES):
        subprocess.run(
            [gcc, *SANITIZE_FLAGS, "-shared", "-fPIC", "-o",
             str(_native.library_path(package / source)), str(package / source)],
            check=True,
        )
    logs = tmp_path / "sanitizer"  # a report is written where pytest cannot capture it
    env = dict(child_env, PYTHONPATH=str(tmp_path / "src"), LD_PRELOAD=" ".join(runtimes),
               ASAN_OPTIONS=f"detect_leaks=0:log_path={logs}",
               UBSAN_OPTIONS=f"print_stacktrace=1:log_path={logs}")
    proc = subprocess.run(
        [sys.executable, "-u", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(TESTS / name) for name in KERNEL_TESTS)],
        cwd=TESTS.parent, env=env, capture_output=True, text=True,
    )
    reports = "".join(p.read_text() for p in sorted(tmp_path.glob("sanitizer.*")))
    assert proc.returncode == 0 and not reports, (proc.stdout + proc.stderr)[-6000:] + reports[:6000]
    # the child loaded the sanitized builds and built none of its own
    assert sorted(p.name for p in (package / "__pycache__").glob("*.so")) == sorted(
        _native.library_path(package / source).name for source in _native._PROTOTYPES
    )
