import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

# passed through to a child Python: gcc for the kernels, and the sanitizer
# runtime, which must be loaded before a sanitized kernel
CHILD_PASSTHROUGH = ("PATH", "LD_PRELOAD", "ASAN_OPTIONS", "UBSAN_OPTIONS")


@pytest.fixture(scope="session")
def fixtures_dir():
    return os.path.abspath(FIXTURES)


@pytest.fixture
def child_env():
    """The environment of a child Python that imports the kmsteiner package
    this process imported, and nothing else from this environment but
    CHILD_PASSTHROUGH."""
    import kmsteiner

    env = {name: os.environ[name] for name in CHILD_PASSTHROUGH if name in os.environ}
    env["PYTHONPATH"] = str(Path(kmsteiner.__file__).parent.parent)
    return env
