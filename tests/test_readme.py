"""The README's Python API example runs and prints what its comments say."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def api_example() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("## Python API")) + len("```python\n")
    return text[start:text.index("```", start)]


def test_python_api_example_prints_its_comments():
    code = api_example()
    # each print( line ends in "# <what it prints>"
    expected = re.findall(r"^print\(.*#\s*(.+?)\s*$", code, flags=re.MULTILINE)
    printed = []
    exec(code, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert len(expected) == code.count("print(") > 0
    assert printed == expected
