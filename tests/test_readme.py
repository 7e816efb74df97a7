"""The README quick start runs, and every value it shows in a comment is true."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_values():
    source = _quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        _, hash_, comment = lines[node.end_lineno - 1].partition("#")
        if not (hash_ and isinstance(node, ast.Expr)):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        shown = comment.split()[0]
        value = eval(compile(code, "README.md", "eval"), namespace)
        if shown in ("True", "False"):
            assert value is (shown == "True"), code
        else:
            # A value shown with d decimals is the true value rounded to d.
            assert round(value, len(shown.partition(".")[2])) == float(shown), (code, value)
        checked += 1
    assert checked == 4
