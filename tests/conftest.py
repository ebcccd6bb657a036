import contextlib
from math import fsum

import numpy as np
import pytest

from grpoagg import rollout_io
from grpoagg.aggregate import ClipConfig, RuleSums
from grpoagg.groups import Response, RolloutGroup

try:
    import orjson
except ImportError:
    orjson = None

# The two line decoders of rollout_io, for pytest.mark.parametrize.
DECODERS = [
    pytest.param("orjson", marks=pytest.mark.skipif(orjson is None, reason="orjson is not installed")),
    "stdlib",
]
AVAILABLE_DECODERS = ("stdlib",) if orjson is None else ("orjson", "stdlib")


@contextlib.contextmanager
def decoding_with(decoder: str):
    """Decode rollout lines with orjson ("orjson") or with json.loads alone ("stdlib")."""
    saved = rollout_io._fast_loads
    rollout_io._fast_loads = orjson.loads if decoder == "orjson" else None
    try:
        yield
    finally:
        rollout_io._fast_loads = saved


@pytest.fixture
def clip():
    return ClipConfig(0.2, 0.28)


def make_response(length, reward, ratio=1.0, tokens=None):
    """Response of given length with a constant ratio (or explicit ratios)."""
    if tokens is None:
        tokens = (1,) * length
    if np.isscalar(ratio):
        ratios = (float(ratio),) * length
    else:
        ratios = tuple(float(r) for r in ratio)
    return Response(tuple(tokens), float(reward), ratios)


def make_group(specs, eps_var=0.0, prompt_id="p0"):
    """Group from (length, reward) or (length, reward, ratio) tuples."""
    responses = tuple(make_response(*s) for s in specs)
    return RolloutGroup(prompt_id, responses, eps_var)


def reference_rule_sums(adv, ratio_arrays, clip):
    """The sign sums one response at a time: a phi array and an fsum each."""
    sums = {1: [], -1: []}
    seq = {1: [], -1: []}
    tokens = {1: 0, -1: 0}
    clipped = 0
    for arr, a in zip(ratio_arrays, adv.advantages):
        arr = np.asarray(arr, dtype=float)
        if a > 0.0:
            clipped += int(np.count_nonzero(arr > clip.upper))
        elif a < 0.0:
            clipped += int(np.count_nonzero(arr < clip.lower))
        else:
            continue
        sign = 1 if a > 0.0 else -1
        s = fsum(np.minimum(arr * a, np.clip(arr, clip.lower, clip.upper) * a))
        sums[sign].append(s)
        seq[sign].append(s / len(arr))
        tokens[sign] += len(arr)
    pos, neg = adv.pos_indices, adv.neg_indices
    a = adv.advantages
    return RuleSums(
        size=adv.size,
        k=len(pos),
        neg_count=len(neg),
        total_tokens=sum(len(arr) for arr in ratio_arrays),
        n_pos=tokens[1],
        n_neg=tokens[-1],
        pos_phi=fsum(sums[1]),
        neg_phi=fsum(sums[-1]),
        pos_seq=fsum(seq[1]),
        neg_seq=fsum(seq[-1]),
        m_pos=fsum(a[i] for i in pos),
        m_neg=fsum(-a[i] for i in neg),
        z_pos=fsum(a[i] * len(ratio_arrays[i]) for i in pos),
        z_neg=fsum(-a[i] * len(ratio_arrays[i]) for i in neg),
        clipped=clipped,
    )
