"""The short demos and the README's library quickstart run as shipped.

``demos/reproduce_s26_91.py`` takes hours, so only its ``--help`` runs:
argparse exits after the imports.
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


def test_paper_demo_help(monkeypatch, capsys):
    path = os.path.join(ROOT, "demos", "reproduce_s26_91.py")
    monkeypatch.setattr("sys.argv", [path, "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(path, run_name="__main__")
    assert exc.value.code == 0
    assert "--stage {cyclic,tables,bench}" in capsys.readouterr().out


def test_readme_library_quickstart(capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
