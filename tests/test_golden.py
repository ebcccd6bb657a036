"""Byte-for-byte output contracts for analyze, simulate and compare.

The files under ``data/golden`` were written by these exact command lines;
any change to them must be a deliberate, versioned change of the outputs.
"""

from pathlib import Path

import pytest

from grpoagg.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
FAULTY = Path(__file__).parent / "data" / "faulty_rollouts.jsonl"


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (
            ["analyze", "--input", str(FAULTY), "--window", "2"],
            ["analysis.csv", "regime.txt"],
        ),
        (
            ["simulate", "--task", "count", "--lr", "0.5", "--steps", "25", "--seed", "3"],
            ["metrics_balanced.csv"],
        ),
        (
            ["compare", "--inner-epochs", "2", "--lr", "0.5", "--steps", "12", "--seed", "1"],
            ["comparison.csv"],
        ),
    ],
    ids=["analyze", "simulate", "compare"],
)
def test_outputs_match_golden_bytes(tmp_path, capsys, argv, outputs):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
