import os
import re
import runpy

import pytest

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                    "end_to_end.py")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_demo_ranks_five_sites_and_splits_by_zone(capsys):
    ns = runpy.run_path(DEMO, run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    ranked = [ln.split()[0] for ln in lines if ln.lstrip().startswith("#")]
    assert ranked == ["#1", "#2", "#3", "#4", "#5"]
    assert ns["zones"]["share"].sum() == pytest.approx(1.0, abs=1e-12)
    percents = [float(ln.split()[-2]) for ln in lines if ln.endswith(" %")]
    assert len(percents) == 9
    assert sum(percents) == pytest.approx(100.0, abs=0.05 * len(percents))


def test_readme_python_blocks_run(capsys):
    # in order and in one namespace, as a reader would paste them, so the
    # README cannot name API that no longer exists
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(),
                            re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    ns = {"__name__": "__main__"}
    for block in blocks:
        exec(compile(block, README, "exec"), ns)
    lines = capsys.readouterr().out.splitlines()
    # the first block's comment promises ~5441 W/m for the flat band
    assert float(lines[0]) == pytest.approx(5441, rel=1e-3)
    assert ns["ranked"][0]["rank"] == 1
    assert ns["zones"]["share"].sum() == pytest.approx(1.0, abs=1e-12)
