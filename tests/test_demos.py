"""The demos and the README's library quickstart run as shipped.

The full-scale reproduction is the paper tier of the acceptance suite
(``pytest -m paper -s``), not a demo.
"""

import os
import re
import runpy

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.mark.parametrize(
    "name", ["cyclic_triple_systems", "fano_tour", "order84_groups", "xcc_quickstart"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(ROOT, "demos", f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_quickstart(capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
