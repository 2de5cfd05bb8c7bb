import os
import runpy

import pytest

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                    "end_to_end.py")


def test_demo_ranks_five_sites_and_splits_by_zone(capsys):
    ns = runpy.run_path(DEMO, run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    ranked = [ln.split()[0] for ln in lines if ln.lstrip().startswith("#")]
    assert ranked == ["#1", "#2", "#3", "#4", "#5"]
    assert sum(ns["shares"].values()) == pytest.approx(1.0, abs=1e-12)
    percents = [float(ln.split()[-2]) for ln in lines if ln.endswith(" %")]
    assert len(percents) == 9
    assert sum(percents) == pytest.approx(100.0, abs=0.05 * len(percents))
