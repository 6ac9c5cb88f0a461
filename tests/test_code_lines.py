import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment line
TOTAL = sum([
    1,
    2,  # a trailing comment
])


def f():
    """A function docstring."""
    return TOTAL
'''


def test_counts_on_a_fixed_snippet():
    # 13 physical lines; code lines 5-8, 11 and 13; statements: the two
    # docstring expressions, the assignment, the def and the return
    assert code_lines.measure(SNIPPET) == (13, 6, 5)


def test_report_sums_the_modules_a_count_loads(tmp_path, capsys):
    (tmp_path / "recipes.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "suites.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = {line.rsplit(None, 3)[0]: [int(v) for v in line.split()[-3:]]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"recipes": [13, 6, 5], "suites": [1, 1, 1],
                    "(count loads)": [13, 6, 5], "(package)": [14, 7, 6]}
