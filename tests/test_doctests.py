"""The examples in the documentation run: module doctests and the README tour."""

import doctest
import re
from pathlib import Path

import pytest

from dcbruhat import bruhat, parabolic, poset, spherical, symgroup, weights

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "module",
    [symgroup, bruhat, parabolic, poset, spherical, weights],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0
    assert failed == 0


def test_readme_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "stretched-diamond" in out
    assert "(2, 1, 6, 5, 4, 3)" in out
