"""Exhaustive recoverability verification."""

import math
import random

import pytest

from lrsc.codec import Encoder, MdsDeCode, make_lrsc
from lrsc.gf import make_tower
from lrsc.matrix import parity_weights, stacked_parity_check, superregular_matrix
from lrsc.oracle import verify_scalar, verify_stream

from conftest import mat_vec, random_stream, stream_codeword


def test_scalar_3_2_all_patterns_pass():
    code = make_lrsc(3, 8, 2)
    rep = verify_scalar(code.weights)
    assert rep.pattern_count == math.comb(9, 3) == 84
    assert rep.ok


def test_scalar_single_lag():
    # one parity covering r symbols behaves like a single-erasure-correcting
    # block code: all r+1 single-erasure patterns pass
    f = make_tower(5, 2)
    w = parity_weights(f, superregular_matrix(f, 3, 1))
    rep = verify_scalar(w)
    assert rep.pattern_count == 4
    assert rep.ok


def test_scalar_parity_only_patterns_vacuous():
    # erasing only parity coordinates never creates an obligation, so a
    # 2-lag code with every pattern confined to the last two coordinates
    # cannot fail there; the full enumeration covers them
    code = make_lrsc(2, 3, 1)
    rep = verify_scalar(code.weights)
    assert rep.ok


@pytest.mark.parametrize("a,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_scalar_and_stream_agree(a, r):
    tau = a * (r + 1) - 1
    code = make_lrsc(a, tau, r)
    assert verify_scalar(code.weights).ok
    assert verify_stream(code, a, tau).ok


def test_stream_252_budget_and_locality():
    code = make_lrsc(2, 5, 2)
    rep = verify_stream(code, 2, 5)
    assert rep.ok and rep.max_delay[2] == 5 and rep.max_delay[1] == 2
    rep = verify_stream(code, 1, 2)
    assert rep.ok and rep.max_delay[1] == 2


def test_stream_382_handles_two_erasures_within_five():
    code = make_lrsc(3, 8, 2)
    assert verify_stream(code, 2, 5).ok


def test_stream_pattern_count_closed_form():
    code = make_lrsc(2, 4, 2)
    rep = verify_stream(code, 2, 4)
    horizon = 3 * (code.tau + 1)
    anchors = 1 + (2 * horizon) // 3 - horizon // 3
    per_anchor = sum(math.comb(4, s - 1) for s in range(1, 3))
    assert rep.pattern_count == anchors * per_anchor


def test_stream_message_seed_independence():
    code = make_lrsc(2, 4, 2)
    outcomes = []
    for seed in (0, 1, 2):
        rep = verify_stream(code, 2, 4, seed=seed)
        outcomes.append((rep.pattern_count, len(rep.failures), rep.max_delay))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_stream_trials_multiply_patterns():
    code = make_lrsc(2, 4, 2)
    one = verify_stream(code, 1, 2, trials=1)
    three = verify_stream(code, 1, 2, trials=3)
    assert three.pattern_count == 3 * one.pattern_count
    assert three.ok


@pytest.mark.parametrize("budget,deadline,trials", [(0, 5, 1), (1, -1, 1), (2, 5, 0)])
def test_stream_rejects_a_suite_that_checks_nothing(budget, deadline, trials):
    # budget 0 or trials 0 would report patterns=0 failures=0 and pass
    with pytest.raises(ValueError, match="need budget"):
        verify_stream(make_lrsc(2, 5, 2), budget, deadline, trials=trials)


def test_negative_control_de12():
    # the 1-erasure diagonal baseline is not a 2-erasure code: erasing
    # {t, t+1} orphans the second symbol, and {t, t+2} the first, because
    # each symbol appears in exactly one later parity
    rep = verify_stream(MdsDeCode(1, 2), 2, 5)
    assert not rep.ok
    offsets = {tuple(x - f.pattern[0] for x in f.pattern) for f in rep.failures}
    assert offsets == {(0, 1), (0, 2)}
    anchors_failing = {f.pattern[0] for f in rep.failures}
    assert len(rep.failures) == 2 * len(anchors_failing)


def test_negative_control_de25_single_erasure():
    # the 2-erasure diagonal baseline cannot meet the delay-2 deadline:
    # its first parity covering m_0(t) only arrives at t+4
    rep = verify_stream(MdsDeCode(2, 5), 1, 2)
    assert not rep.ok
    assert len(rep.failures) == rep.pattern_count
    # but it is a perfectly good 2-erasure deadline-5 code
    assert verify_stream(MdsDeCode(2, 5), 2, 5).ok


def test_stream_codeword_annihilated_by_parity_check():
    code = make_lrsc(3, 8, 2)
    pc = stacked_parity_check(code.weights)
    f = code.field
    rng = random.Random(13)
    for _ in range(50):
        msgs = random_stream(rng, f.order, code.k, 3 * (code.tau + 1))
        t = rng.randrange(0, code.tau)
        w = stream_codeword(code, msgs, t)
        assert mat_vec(f, pc, w) == [0] * 3


def test_stream_codeword_rejects_short_regime():
    code = make_lrsc(2, 4, 2)
    with pytest.raises(ValueError):
        stream_codeword(code, [(0, 0, 0)] * 15, 0)


def test_graceful_degradation_352():
    code = make_lrsc(3, 8, 2)
    for h in (1, 2, 3):
        d = h * 3 - 1
        rep = verify_stream(code, h, d)
        assert rep.ok
        assert rep.max_delay[h] == d


@pytest.mark.parametrize("a,tau,r", [
    (3, 4, 3),    # u=0: message shorter than one diagonal block
    (2, 3, 2),    # v=0 with a single block
    (4, 5, 2),    # v=0, three second-form parities
    (3, 4, 1), (4, 6, 1),
    (2, 6, 2), (3, 13, 2),   # long regime
])
def test_stream_edge_parameter_sets(a, tau, r):
    code = make_lrsc(a, tau, r)
    assert verify_stream(code, a, tau).ok
    rep = verify_stream(code, 1, r)
    assert rep.ok
    assert rep.max_delay[1] <= r
