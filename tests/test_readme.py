"""The README's library quick start runs as written, so a public name that
the docs use cannot be removed or renamed unnoticed."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    monkeypatch.chdir(ROOT)  # the block reads configs/ relative to the root
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    first, truth = capsys.readouterr().out.splitlines()
    midpoint, halfwidth = map(float, first.split()[:2])
    assert (midpoint, halfwidth) == pytest.approx((0.4979644562960963, 0.19455473512706833),
                                                  rel=1e-12)
    assert float(truth) == 0.5
