"""The README's Python examples run as written, and show what they return."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _shown_value(line):
    """The literal after a line's ``#``, or None when the comment is prose."""
    try:
        return ast.literal_eval(line.partition("#")[2].strip())
    except (ValueError, SyntaxError):
        return None


def test_readme_python_blocks_run_in_one_namespace():
    # the blocks run in order and share names: a later block reads the first's path
    blocks = _python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    shown = 0
    for block in blocks:
        lines = block.splitlines()
        for statement in ast.parse(block).body:
            if isinstance(statement, ast.Expr):
                expression = ast.Expression(statement.value)
                value = eval(compile(expression, str(README), "eval"), namespace)
                expected = _shown_value(lines[statement.end_lineno - 1])
                if expected is not None:
                    assert value == expected, lines[statement.end_lineno - 1]
                    shown += 1
            else:
                exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
    assert shown >= 4
