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


def test_readme_order_limits_are_the_dense_limit():
    from gainspec.spectra import DENSE_MAX_ORDER

    text = " ".join(README.read_text().split())  # undo the line wrapping
    assert f"`DENSE_MAX_ORDER` = {DENSE_MAX_ORDER}" in text
    stated = dict(re.findall(r"`(analyze|double)` above order (\d+)", text))
    assert stated == {
        "analyze": str(DENSE_MAX_ORDER),
        "double": str(DENSE_MAX_ORDER // 2),
    }
    # no other order limit, such as one on the product alone
    limits = re.findall(r"above (?:\w+ )?order (\d+)", text)
    assert sorted(map(int, limits)) == [DENSE_MAX_ORDER // 2, DENSE_MAX_ORDER]
