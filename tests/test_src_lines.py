"""tools/src_lines.py counts ``src/`` as the benchmark does, and its
code-only count leaves out blank lines, comments and docstrings."""

import importlib
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import(monkeypatch, folder, name):
    monkeypatch.syspath_prepend(str(ROOT / folder))
    return importlib.import_module(name)


def test_physical_total_is_the_benchmarks_src_lines(monkeypatch):
    src_lines = _import(monkeypatch, "tools", "src_lines")
    # importing run.py sets the BLAS variables and drops REACHCAST_OUT;
    # monkeypatch puts them back after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "REACHCAST_OUT"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    run = _import(monkeypatch, "reachbench", "run")
    rows = src_lines.count(ROOT)
    assert {name for name, _, _ in rows} >= {"reachcast/model.py", "reachcast/cli.py"}
    assert sum(physical for _, physical, _ in rows) == run.src_lines()


def test_code_only_lines_leave_out_blanks_comments_and_docstrings(monkeypatch, tmp_path):
    src_lines = _import(monkeypatch, "tools", "src_lines")
    module = tmp_path / "src" / "pkg" / "tiny.py"
    module.parent.mkdir(parents=True)
    module.write_text('"""A module docstring\nover two lines."""\n'
                      "\n"
                      "# a comment line\n"
                      "X = (1,\n"
                      "     2)  # a trailing comment\n"
                      "\n"
                      "def f():\n"
                      '    """A function docstring."""\n'
                      '    return "not a docstring"\n')
    assert src_lines.count(tmp_path) == [("pkg/tiny.py", 10, 4)]
