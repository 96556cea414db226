"""The demos' printed output, pinned byte for byte.

Each ``demos/NN_*.py`` runs in-process as ``__main__`` and its stdout is
compared with ``tests/golden/demo_NN.txt``.  Demo 04 is the user-facing
caller of the r2/ICC curve, so a kernel change that moves a printed digit
fails here.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("[0-9][0-9]_*.py"))
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_output_matches_golden(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"demo_{demo.name[:2]}.txt").read_bytes()
