"""Byte-for-byte output contracts for verify, analyze, simulate and compare.

The files under ``data/golden`` were written by these exact command lines;
any change to them must be a deliberate, versioned change of the outputs.
Each case maps an output file (or ``STDOUT``, the command's standard output)
to its golden file; a case that writes files gets ``--out``. A policy archive is compared by its logit array's bytes
(golden ``.npy``), because ``np.savez`` stamps the archive with the time.
"""

from pathlib import Path

import numpy as np
import pytest

from grpoagg.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
FAULTY = Path(__file__).parent / "data" / "faulty_rollouts.jsonl"
RULES = ("token", "seq", "balanced", "balanced_gen")
STDOUT = "<stdout>"


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["verify", "--seed", "7"], {STDOUT: "verify_seed7.txt"}),
        (["verify", "--seed", "0"], {STDOUT: "verify_seed0.txt"}),
        (["verify", "--seed", "3", "--clip-low", "0.1", "--clip-high", "0.5"], {STDOUT: "verify_seed3_band.txt"}),
        (
            ["analyze", "--input", str(FAULTY), "--window", "2"],
            {"analysis.csv": "analysis.csv", "regime.txt": "regime.txt"},
        ),
        (
            ["simulate", "--task", "count", "--lr", "0.5", "--steps", "25", "--seed", "3"],
            {
                "metrics_balanced.csv": "metrics_balanced.csv",
                "policy_balanced.npz": "simulate_policy_balanced.npy",
            },
        ),
        (
            ["compare", "--inner-epochs", "2", "--lr", "0.5", "--steps", "12", "--seed", "1"],
            {"comparison.csv": "comparison.csv"}
            | {f"policy_{r}.npz": f"compare_policy_{r}.npy" for r in RULES},
        ),
        (
            ["compare", "--locked-rollouts", "--inner-epochs", "2", "--lr", "0.5",
             "--steps", "12", "--seed", "2"],
            {"comparison.csv": "comparison_locked.csv"},
        ),
        (
            ["simulate", "--task", "free-length", "--vocab-size", "5", "--t-max", "6",
             "--group-size", "6", "--lr", "0.5", "--steps", "4", "--seed", "4",
             "--dump-rollouts"],
            {"rollouts_balanced.jsonl": "rollouts_balanced.jsonl"},
        ),
    ],
    ids=[
        "verify", "verify-seed0", "verify-seed3-band",
        "analyze", "simulate", "compare", "compare-locked", "simulate-dump",
    ],
)
def test_outputs_match_golden_bytes(tmp_path, capsys, argv, outputs):
    if set(outputs) != {STDOUT}:
        argv = argv + ["--out", str(tmp_path)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    for name, golden in outputs.items():
        if name == STDOUT:
            assert stdout.encode() == (GOLDEN / golden).read_bytes(), name
        elif name.endswith(".npz"):
            with np.load(tmp_path / name) as archive:
                got = archive["logits"]
            want = np.load(GOLDEN / golden)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert (tmp_path / name).read_bytes() == (GOLDEN / golden).read_bytes(), name
