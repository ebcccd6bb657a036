import io

from grpoagg.aggregate import ClipConfig
from grpoagg.verify import SUITE, run_suite

from conftest import fail_check


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
