import contextlib
import math
from math import fsum

import numpy as np
import pytest

from grpoagg import rollout_io
from grpoagg.aggregate import ClipConfig, RuleSums
from grpoagg.groups import AdvantageSet, DegenerateGroupError, Response, RolloutGroup

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


def reference_rule_terms(rule, sums):
    """One row of the rule table for one group, as Python floats:
    (objective, degenerate, w_pos, w_neg), with w_pos(T) / w_neg(T) the
    weight of a token of a length-T positive / negative response."""
    g = sums.size
    if rule == "token":
        w = 1.0 / sums.total_tokens
        objective = (sums.pos_phi + sums.neg_phi) / sums.total_tokens
        return objective, False, lambda t: w, lambda t: w
    if rule == "seq":
        objective = (sums.pos_seq + sums.neg_seq) / g
        return objective, False, lambda t: 1.0 / (g * t), lambda t: 1.0 / (g * t)
    if rule == "balanced":
        c_pos, c_neg, d_pos, d_neg = sums.k, sums.neg_count, sums.n_pos, sums.n_neg
    else:
        c_pos, c_neg, d_pos, d_neg = sums.m_pos, sums.m_neg, sums.z_pos, sums.z_neg
    term_pos = w_pos = term_neg = w_neg = 0.0
    if sums.k:
        term_pos = (c_pos / g) * (sums.pos_phi / d_pos)
        w_pos = (c_pos / g) / d_pos
    if sums.neg_count:
        term_neg = (c_neg / g) * (sums.neg_phi / d_neg)
        w_neg = (c_neg / g) / d_neg
    degenerate = sums.k == 0 and sums.neg_count == 0
    return term_pos + term_neg, degenerate, lambda t: w_pos, lambda t: w_neg


def reference_ratio_gradients(rule, sums, advantages, ratio_arrays, clip):
    """Each response's dJ/d rho = w_i d phi/d rho under reference_rule_terms."""
    _, _, w_pos, w_neg = reference_rule_terms(rule, sums)
    out = []
    for arr, a in zip(ratio_arrays, advantages):
        arr = np.asarray(arr, dtype=float)
        w = w_pos(len(arr)) if a > 0.0 else w_neg(len(arr)) if a < 0.0 else 0.0
        active = ((a > 0.0) & (arr <= clip.upper)) | ((a < 0.0) & (arr >= clip.lower))
        out.append(w * (a * active))
    return out


def reference_normalize(rewards, eps_var, prompt_id):
    """A group's advantages, one reward at a time, with the library's errors."""
    g = len(rewards)
    if eps_var == 0.0 and all(r == rewards[0] for r in rewards):
        raise DegenerateGroupError(f"group {prompt_id!r}: all rewards equal ({rewards[0]}) with eps_var=0")
    try:
        mu = fsum(rewards) / g
        sigma = math.sqrt(fsum((r - mu) ** 2 for r in rewards) / g + eps_var)
        if not 0.0 < sigma < math.inf:
            raise OverflowError
    except OverflowError:
        raise ValueError(f"group {prompt_id!r}: reward variance is out of float range") from None
    return AdvantageSet(tuple((r - mu) / sigma for r in rewards), mu, sigma)


def count_constructions(monkeypatch, *classes):
    """A list that gets each class's name whenever one of ``classes`` is built."""
    built = []
    for cls in classes:
        def init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    return built
