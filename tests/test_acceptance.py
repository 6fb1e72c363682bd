"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s or look at the junit output to see them).

Criterion 9a asserts that the two codes' loss probabilities sit inside each
other's 95% confidence intervals at T=1e6.  Measurement shows the locality
code genuinely loses fewer packets than the diagonal baseline once erasure
bursts exceed the budget, so at this sample size the intervals separate at
the larger erasure rates; the test states the criterion faithfully and is
expected to fail there.  See the repository notes for the analysis.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from lrsc.cli import parity_table, render_parity_expr
from lrsc.codec import Encoder, LrscCode, MdsDeCode, make_lrsc
from lrsc.gf import make_tower
from lrsc.matrix import parity_weights, stacked_parity_check, superregular_matrix
from lrsc.oracle import verify_scalar, verify_stream
from lrsc.params import derive_params, rate_bound
from lrsc.sim import PecChannel, run_sim

from conftest import (all_minors_nonzero, frobenius_fixed, in_subfield, mat_add, mat_vec,
                      random_stream, stream_codeword, subfield_perturbation)

EXACT_GRID = [(a, r) for a in (2, 3, 4) for r in (1, 2, 3)]
SHORT_SETS = [(2, 4, 2), (3, 7, 2), (3, 8, 3), (4, 9, 3)]
LOCALITY_EXTRAS = [(2, 4, 2), (3, 5, 1), (2, 3, 1), (3, 7, 2)]


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num:>3} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, desc


def _norm(expr):
    """Term multiset of a rendered parity expression, order-insensitive."""
    if expr.strip() == "-":
        return frozenset()
    return frozenset(expr.replace(" ", "").split("+"))


# Transcribed parity rows of the published (2,5,2) table, t = 0..10.
TABLE_252 = [
    "-",
    "m_1(0)",
    "m_0(0)+m_1(1)",
    "m_0(1)+m_1(2)",
    "2m_1(0)+m_0(2)+m_1(3)",
    "m_0(0)+2m_1(1)+m_0(3)+m_1(4)",
    "m_0(1)+2m_1(2)+m_0(4)+m_1(5)",
    "m_0(2)+2m_1(3)+m_0(5)+m_1(6)",
    "m_0(3)+2m_1(4)+m_0(6)+m_1(7)",
    "m_0(4)+2m_1(5)+m_0(7)+m_1(8)",
    "m_0(5)+2m_1(6)+m_0(8)+m_1(9)",
]

# Published (2,4,2) table, two parity rows, t = 0..10.
TABLE_242_P0 = [
    "-",
    "m_1(0)",
    "m_0(0)+m_1(1)",
    "m_0(1)+m_1(2)",
    "m_0(2)+m_1(3)+m_2(0)",
    "m_0(3)+m_1(4)+m_2(1)",
    "m_0(4)+m_1(5)+m_2(2)",
    "m_0(5)+m_1(6)+m_2(3)",
    "m_0(6)+m_1(7)+m_2(4)",
    "m_0(7)+m_1(8)+m_2(5)",
    "m_0(8)+m_1(9)+m_2(6)",
]
TABLE_242_P1 = [
    "-",
    "m_2(0)",
    "m_2(1)",
    "2m_1(0)+m_2(2)",
    "m_0(0)+2m_1(1)+m_2(3)",
    "m_0(1)+2m_1(2)+m_2(4)",
    "m_0(2)+2m_1(3)+m_2(5)",
    "m_0(3)+2m_1(4)+m_2(6)",
    "m_0(4)+2m_1(5)+m_2(7)",
    "m_0(5)+2m_1(6)+m_2(8)",
    "m_0(6)+2m_1(7)+m_2(9)",
]


def test_criterion_1_golden_parity_tables():
    t0 = time.perf_counter()
    code = LrscCode(derive_params(2, 5, 2))
    table = parity_table(code, 10)
    for t, want in enumerate(TABLE_252):
        got = render_parity_expr(code.field, table[t][0])
        assert _norm(got) == _norm(want), (t, got, want)

    code = LrscCode(derive_params(2, 4, 2))
    table = parity_table(code, 10)
    for t, (w0, w1) in enumerate(zip(TABLE_242_P0, TABLE_242_P1)):
        assert _norm(render_parity_expr(code.field, table[t][0])) == _norm(w0), t
        assert _norm(render_parity_expr(code.field, table[t][1])) == _norm(w1), t

    # (3,8,2): structural check; entries stay symbolic in the publication,
    # so pin which weight column multiplies which diagonal slice and that
    # the third column carries the out-of-subfield scalar
    code = LrscCode(derive_params(3, 8, 2))
    f = code.field
    g = code.weights
    sr = superregular_matrix(f, 2, 3)
    t = 12
    terms = {(t - d, j): c for (j, d, c) in code.templates[0] if d <= t}
    for lag, base in ((0, t - 2), (1, t - 5), (2, t - 8)):
        for w in (0, 1):
            assert terms[(base + w, w)] == g.rows[w][lag]
    for w in (0, 1):
        assert not in_subfield(f, g.rows[w][2], 1)
        assert g.rows[w][2] == f.mul(f.level_scalar(2), sr[w][2])
        assert g.rows[w][0] == sr[w][0]
        assert g.rows[w][1] == sr[w][1]

    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 1.0, f"golden parity tables match (in {elapsed:.2f}s)")


def test_criterion_2_exact_regime_exhaustive():
    for a, r in EXACT_GRID:
        tau = a * (r + 1) - 1
        code = LrscCode(derive_params(a, tau, r))
        rep = verify_scalar(code.weights)
        assert rep.ok, (a, r, rep.failures[:3])
        assert rep.pattern_count == math.comb(a * (r + 1), a)
        rep = verify_stream(code, a, tau)
        assert rep.ok, (a, r, rep.failures[:3])
    _report(2, True, "exact-regime recoverability exhaustive over (a,r) in {2,3,4}x{1,2,3}")


def test_criterion_3_locality():
    sets = [(a, a * (r + 1) - 1, r) for a, r in EXACT_GRID] + LOCALITY_EXTRAS
    for a, tau, r in sets:
        code = LrscCode(derive_params(a, tau, r))
        rep = verify_stream(code, 1, r)
        assert rep.ok, (a, tau, r, rep.failures[:3])
        assert rep.max_delay[1] <= r
    _report(3, True, f"single-erasure recovery within r for {len(sets)} parameter sets")


def test_criterion_4_graceful_degradation():
    for a, r in [(3, 2), (4, 1), (4, 2)]:
        tau = a * (r + 1) - 1
        code = LrscCode(derive_params(a, tau, r))
        for h in range(1, a + 1):
            d = h * (r + 1) - 1
            rep = verify_stream(code, h, d)
            assert rep.ok, (a, r, h, rep.failures[:3])
    _report(4, True, "h erasures recovered within h(r+1)-1 for (3,2), (4,1), (4,2)")


def test_criterion_5_short_regime():
    for a, tau, r in SHORT_SETS:
        p = derive_params(a, tau, r)
        assert p.regime == "short"
        rep = verify_stream(LrscCode(p), a, tau)
        assert rep.ok, (a, tau, r, rep.failures[:3])
    _report(5, True, "short-regime full-budget recovery for (2,4,2), (3,7,2), (3,8,3), (4,9,3)")


def test_criterion_6_rate_optimality():
    sets = [(a, a * (r + 1) - 1, r) for a, r in EXACT_GRID] + SHORT_SETS + LOCALITY_EXTRAS
    for a, tau, r in sets:
        p = derive_params(a, tau, r)
        assert p.rate == rate_bound(a, tau, r) == min(
            Fraction(tau + 1 - a, tau + 1), Fraction(r, r + 1))
    _report(6, True, "rate equals min((tau+1-a)/(tau+1), r/(r+1)) on every parameter set")


def test_criterion_7_negative_controls():
    rep = verify_stream(MdsDeCode(1, 2), 2, 5)
    offsets = {tuple(x - f.pattern[0] for x in f.pattern) for f in rep.failures}
    assert (0, 1) in offsets
    # the exhaustive run also exposes {t, t+2}: the first diagonal symbol
    # appears in exactly one later parity, so erasing it too is fatal
    assert offsets == {(0, 1), (0, 2)}

    rep = verify_stream(MdsDeCode(2, 5), 1, 2)
    assert len(rep.failures) == rep.pattern_count > 0
    _report(7, True, "diagonal baselines fail exactly where published: "
                     "(1,2) under two erasures, (2,5) under the delay-2 deadline")


def test_criterion_8_small_field_two_erasure_code():
    p = derive_params(2, 5, 2)
    assert p.q == 3 < 5
    code = LrscCode(p)
    assert verify_scalar(code.weights).ok
    assert verify_stream(code, 2, 5).ok
    assert verify_stream(code, 1, 2).ok
    _report(8, True, "(2,5,2) over a 3-element field passes the full battery; "
                     "the diagonal baseline would need order >= 5")


SIM_T = 1_000_000
SIM_SEED = 20250808
SIM_EPS = (0.01, 0.05, 0.1)


@pytest.fixture(scope="module")
def sim_results():
    lrsc = make_lrsc(2, 5, 2)
    de = MdsDeCode(2, 5)
    out = {}
    for i, eps in enumerate(SIM_EPS):
        from lrsc.sim import splitmix64
        chan_seed = splitmix64(SIM_SEED ^ (2 * i + 1))
        msg_seed = splitmix64(SIM_SEED ^ (2 * i + 2))
        out[eps] = (run_sim(lrsc, PecChannel(eps, chan_seed), SIM_T, msg_seed),
                    run_sim(de, PecChannel(eps, chan_seed), SIM_T, msg_seed))
    return out


def test_criterion_9a_loss_probabilities_overlap(sim_results):
    ok = True
    detail = []
    for eps in SIM_EPS:
        r1, r2 = sim_results[eps]
        lo1, hi1 = r1.loss_prob - r1.loss_ci, r1.loss_prob + r1.loss_ci
        lo2, hi2 = r2.loss_prob - r2.loss_ci, r2.loss_prob + r2.loss_ci
        overlap = lo1 <= hi2 and lo2 <= hi1
        detail.append(f"eps={eps}: lrsc {r1.loss_prob:.2e}+-{r1.loss_ci:.1e} vs "
                      f"mds {r2.loss_prob:.2e}+-{r2.loss_ci:.1e} overlap={overlap}")
        ok = ok and overlap
    print()
    for line in detail:
        print("   ", line)
    _report("9a", ok, "loss probabilities agree within overlapping 95% intervals at each eps")


def test_criterion_9b_delay_advantage(sim_results):
    for eps in (0.01, 0.05):
        r1, _ = sim_results[eps]
        assert r1.mean_delay_erased is not None and r1.mean_delay_erased < 3.0, eps
        fast = sum(c for d, c in r1.delay_hist.items() if 1 <= d <= 2)
        slow = sum(c for d, c in r1.delay_hist.items() if d > 2)
        assert fast > slow, eps
    for eps in SIM_EPS:
        r1, _ = sim_results[eps]
        assert all(d <= 5 for d in r1.delay_hist)
    _report("9b", True, "locality code's recovered-delay mean < 3.0 at eps <= 0.05 "
                        "with delay <= 2 dominating (baseline guarantee is 5)")


def test_criterion_10_property_suites():
    # subfield membership agrees with the Frobenius fixed-point test
    for q in (2, 3, 4, 5, 7, 8, 9):
        for a in (2, 3):
            f = make_tower(q, a)
            for x in range(f.order):
                for j in range(1, f.levels + 1):
                    assert in_subfield(f, x, j) == frobenius_fixed(f, x, j)

    # superregularity survives lower-subfield perturbation of the lagged
    # columns, 100 seeds per shape, r and a up to 4
    for a in (2, 3, 4):
        for r in (1, 2, 3, 4):
            f = make_tower(smallest_q(r, a), max(a, 2))
            c = superregular_matrix(f, r, a)
            w = parity_weights(f, c)
            assert all_minors_nonzero(f, c)
            for seed in range(100):
                d = subfield_perturbation(f, r, a, seed=seed)
                assert all_minors_nonzero(f, mat_add(f, w.rows, d)), (a, r, seed)

    # every stream codeword is annihilated by the stacked parity check
    rng = random.Random(99)
    checked = 0
    for a, tau, r in [(2, 5, 2), (3, 8, 2), (4, 7, 1)]:
        code = LrscCode(derive_params(a, tau, r))
        pc = stacked_parity_check(code.weights)
        horizon = 3 * (tau + 1)
        for _ in range(350):
            msgs = random_stream(rng, code.field.order, code.k, horizon)
            t = rng.randrange(0, tau)
            w = stream_codeword(code, msgs, t)
            assert mat_vec(code.field, pc, w) == [0] * a
            checked += 1
    assert checked >= 1000
    _report(10, True, "Frobenius agreement, perturbed superregularity (100 seeds, r,a <= 4), "
                      f"and parity-check annihilation over {checked} random streams")


def smallest_q(r, a):
    from lrsc.gf import smallest_prime_power_at_least
    return smallest_prime_power_at_least(max(2, r + a - 1))
