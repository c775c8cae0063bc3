"""The README's Python API section: its example runs and prints what its comments say,
and it names every public name."""
from __future__ import annotations

import re
from pathlib import Path

import multirate_zeros

README = Path(__file__).resolve().parents[1] / "README.md"


def api_section() -> str:
    text = README.read_text()
    start = text.index("## Python API")
    return text[start:text.index("\n## ", start)]


def api_example() -> str:
    section = api_section()
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_python_api_example_prints_its_comments():
    code = api_example()
    # each print( line ends in "# <what it prints>"
    expected = re.findall(r"^print\(.*#\s*(.+?)\s*$", code, flags=re.MULTILINE)
    printed = []
    exec(code, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert len(expected) == code.count("print(") > 0
    assert printed == expected


def test_every_public_name_is_in_the_api_section():
    # a name counts as named when a code span starts with it, or when the
    # example's code uses it
    named = set(re.findall(r"`(\w+)", api_section())) | set(re.findall(r"\w+", api_example()))
    assert [n for n in multirate_zeros.__all__ if n not in named] == []
