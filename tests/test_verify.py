import importlib
import io
import math
import re

import numpy as np
import pytest

from grpoagg.aggregate import ClipConfig, FlatBatch
from grpoagg.groups import Response, RolloutGroup
from grpoagg.verify import (
    SMOOTH_MARGIN,
    SUITE,
    random_binary_group,
    random_real_group,
    random_smooth_group,
    run_suite,
)

from conftest import count_constructions, fail_check

# the module, not the function grpoagg.decompose that the package exports
decompose_module = importlib.import_module("grpoagg.decompose")
verify_module = importlib.import_module("grpoagg.verify")


def test_suite_names_unique():
    names = [c.name for c in SUITE]
    assert len(names) == len(set(names))


def test_run_suite_passes_and_is_deterministic():
    out1, out2 = io.StringIO(), io.StringIO()
    assert run_suite(3, ClipConfig(), out1)
    assert run_suite(3, ClipConfig(), out2)
    assert out1.getvalue() == out2.getvalue()
    assert out1.getvalue().count("PASS") == len(SUITE)


def test_run_suite_fault_injection(monkeypatch):
    fail_check(monkeypatch, "token_decomposition")
    out = io.StringIO()
    assert not run_suite(0, ClipConfig(), out)
    text = out.getvalue()
    assert "FAIL token_decomposition" in text
    assert text.count("\nFAIL ") == 1


def test_run_suite_builds_no_record(monkeypatch):
    built = count_constructions(monkeypatch, Response, RolloutGroup)
    assert run_suite(0, ClipConfig(), io.StringIO())
    assert built == []


def failures(text):
    """Each FAIL line of a suite report, as {check name: its max_err text}."""
    return {
        line.split()[1]: line.split()[2]
        for line in text.splitlines()
        if line.startswith("FAIL ")
    }


def test_closed_form_fault_fails_the_binary_decompositions(monkeypatch):
    # a closed-form advantage 1e-9 off in the decompositions; the
    # closed_form_advantages check reads grpoagg.groups' own and still passes
    exact = decompose_module.binary_closed_form
    monkeypatch.setattr(
        decompose_module, "binary_closed_form", lambda g, k: tuple(a * (1 + 1e-9) for a in exact(g, k))
    )
    out = io.StringIO()
    assert not run_suite(0, ClipConfig(), out)
    failed = failures(out.getvalue())
    assert set(failed) == {"token_decomposition", "seq_decomposition", "balanced_decomposition", "ba_weight_identity"}
    assert failed["ba_weight_identity"] == "max_err=inf"


def test_ratio_gradient_fault_fails_only_the_gradient_check(monkeypatch):
    exact = FlatBatch.ratio_gradients
    monkeypatch.setattr(FlatBatch, "ratio_gradients", lambda self, *args: exact(self, *args) * 1.001)
    out = io.StringIO()
    assert not run_suite(0, ClipConfig(), out)
    assert set(failures(out.getvalue())) == {"ratio_gradient_check"}


def test_a_nan_ratio_gradient_fails_only_the_gradient_check(monkeypatch):
    # a Python max(err, nan) keeps err, so a NaN error must fail by itself
    exact = FlatBatch.ratio_gradients
    monkeypatch.setattr(FlatBatch, "ratio_gradients", lambda self, *args: exact(self, *args) * math.nan)
    out = io.StringIO()
    assert not run_suite(0, ClipConfig(), out)
    assert failures(out.getvalue()) == {"ratio_gradient_check": "max_err=nan"}


def test_a_nan_phi_above_two_fails_only_the_concavity_check(monkeypatch):
    # the hand values use ratios up to 1.5 and stay exact; the concavity draws reach 2.5
    exact = verify_module.phi
    monkeypatch.setattr(verify_module, "phi", lambda ratio, *args: math.nan if ratio > 2.0 else exact(ratio, *args))
    out = io.StringIO()
    assert not run_suite(0, ClipConfig(), out)
    assert failures(out.getvalue()) == {"clipped_term_concavity": "max_err=nan"}


def test_drawn_groups_that_do_not_normalise_are_refused():
    with pytest.raises(ValueError, match=re.escape("drawn groups [0] do not normalise")):
        verify_module._advantages([[1.0, 1.0], [0.0, 1.0]])


SMOOTH = ClipConfig(0.1, 0.5)
DRAWERS = {
    # drawer, its largest group, its longest response, its ratio band
    "binary": (random_binary_group, 16, 10, 0.6, 1.6),
    "binary-32": (lambda rng: random_binary_group(rng, max_group=32), 32, 10, 0.6, 1.6),
    "real": (random_real_group, 16, 10, 0.6, 1.6),
    "smooth": (lambda rng: random_smooth_group(rng, SMOOTH), 8, 6,
               SMOOTH.lower + SMOOTH_MARGIN, SMOOTH.upper - SMOOTH_MARGIN),
}


@pytest.mark.parametrize("name", DRAWERS)
def test_drawers_keep_their_sizes_lengths_and_ratio_bands(name):
    drawer, max_group, max_len, lo, hi = DRAWERS[name]
    rng = np.random.default_rng(11)
    sizes, all_lengths = set(), set()
    for _ in range(300):
        rewards, lengths, ratios = drawer(rng)
        sizes.add(len(rewards))
        all_lengths.update(lengths)
        assert len(lengths) == len(rewards)
        assert ratios.dtype == np.float64 and len(ratios) == sum(lengths)
        assert lo <= ratios.min() and ratios.max() < hi
        if name != "real":
            k = rewards.count(1.0)
            assert k + rewards.count(0.0) == len(rewards) and 1 <= k <= len(rewards) - 1
    # every size and length lies in its range, and both ends of each are drawn
    assert min(sizes) == 2 and max(sizes) == max_group
    assert min(all_lengths) == 1 and max(all_lengths) == max_len
