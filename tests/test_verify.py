import io

from grpoagg.verify import SUITE, run_suite


def test_suite_names_unique():
    names = [c.name for c in SUITE]
    assert len(names) == len(set(names))


def test_run_suite_passes_and_is_deterministic():
    out1, out2 = io.StringIO(), io.StringIO()
    assert run_suite(seed=3, stream=out1)
    assert run_suite(seed=3, stream=out2)
    assert out1.getvalue() == out2.getvalue()
    assert out1.getvalue().count("PASS") == len(SUITE)


def test_run_suite_fault_injection():
    out = io.StringIO()
    assert not run_suite(seed=0, inject_fault="token_decomposition", stream=out)
    text = out.getvalue()
    assert "FAIL token_decomposition" in text
    assert text.count("\nFAIL ") == 1
