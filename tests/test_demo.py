"""The demo script runs to the end against the current API."""

import os
import runpy

DEMO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "intelligent_states_demo.py",
)


def test_intelligent_states_demo_runs(capsys):
    runpy.run_path(DEMO, run_name="__main__")
    out = capsys.readouterr().out
    for header in (
        "== ground state ==",
        "== squeezed state (s=4) ==",
        "== singular covariance part: (q, p, q+p) on the ground state ==",
    ):
        assert header in out
    assert out.rstrip().endswith("['1', '1', '-1']")
