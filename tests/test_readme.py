"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_names_every_generate_kind():
    from gainspec.cli import GENERATE_KINDS

    bullet = re.search(
        r"^\* `generate` kinds:(.*?)(?=^\* |\Z)", README.read_text(), re.M | re.S
    ).group(1)
    # the first word of each code span naming a kind: `gnp n p` -> gnp
    named = re.findall(r"`([a-z][a-z0-9_-]*)(?: [^`]*)?`", bullet)
    assert set(named) == set(GENERATE_KINDS)
