"""Encoder: parity values against the closed forms, templates, and stream
properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lrsc.codec import Decoder, Encoder, LrscCode, MdsDeCode, make_lrsc
from lrsc.matrix import superregular_matrix
from lrsc.oracle import verify_stream
from lrsc.params import derive_params
from lrsc.sim import PecChannel, run_sim

from conftest import block_slice, closed_form_parity, diagonal_slice, random_stream


def _encode(code, msgs):
    enc = Encoder(code)
    return [enc.push(m) for m in msgs]


def test_diagonal_slice():
    assert diagonal_slice({}, -5, 2) == [0, 0]
    hist = {0: (5, 7), 1: (1, 2)}
    assert diagonal_slice(hist, 0, 2) == [5, 2]
    assert diagonal_slice(hist, -1, 2) == [0, 7]


def test_diagonal_slice_missing_time_raises():
    with pytest.raises(KeyError):
        diagonal_slice({0: (1, 2)}, 1, 2)


def test_block_slice():
    hist = {0: (1, 2, 3), 1: (4, 5, 6)}
    assert block_slice(hist, 0, 0, 2, 2) == [1, 5]     # symbols 0,1 on the diagonal
    assert block_slice(hist, 1, 0, 2, 1) == [3, 0]     # symbol 2 then zero padding
    assert block_slice(hist, 1, 0, 2, 0) == [0, 0]     # width 0: all padding


def test_parity_252_closed_form():
    code = make_lrsc(2, 5, 2)
    msgs = random_stream(random.Random(1), 3, 2, 24)
    coded = _encode(code, msgs)
    for t in range(6, 24):
        want = (msgs[t - 5][0] + 2 * msgs[t - 4][1] + msgs[t - 2][0] + msgs[t - 1][1]) % 3
        assert coded[t][2] == want


def test_parity_252_warmup_truncation():
    code = make_lrsc(2, 5, 2)
    msgs = random_stream(random.Random(2), 3, 2, 8)
    coded = _encode(code, msgs)
    assert coded[0][2] == 0
    assert coded[1][2] == msgs[0][1] % 3
    assert coded[2][2] == (msgs[0][0] + msgs[1][1]) % 3


def test_parity_382_closed_form():
    code = make_lrsc(3, 8, 2)
    f = code.field
    c = superregular_matrix(f, 2, 3)
    alpha = f.level_scalar(2)
    msgs = random_stream(random.Random(3), 16, 2, 30)
    coded = _encode(code, msgs)
    for t in range(9, 30):
        want = 0
        for coeff, sym in [
            (c[0][0], msgs[t - 2][0]), (c[1][0], msgs[t - 1][1]),
            (c[0][1], msgs[t - 5][0]), (c[1][1], msgs[t - 4][1]),
            (f.mul(alpha, c[0][2]), msgs[t - 8][0]), (f.mul(alpha, c[1][2]), msgs[t - 7][1]),
        ]:
            want = f.add(want, f.mul(coeff, sym))
        assert coded[t][2] == want


def test_zero_messages_zero_parities():
    for code in (make_lrsc(2, 5, 2), make_lrsc(2, 4, 2), MdsDeCode(2, 5)):
        coded = _encode(code, [(0,) * code.k] * 15)
        for pkt in coded:
            assert all(s == 0 for s in pkt[code.k:])


def test_parity_242_closed_form():
    code = make_lrsc(2, 4, 2)
    msgs = random_stream(random.Random(4), 3, 3, 20)
    coded = _encode(code, msgs)
    for t in range(5, 20):
        p0 = (msgs[t - 2][0] + msgs[t - 1][1] + msgs[t - 4][2]) % 3
        p1 = (msgs[t - 4][0] + 2 * msgs[t - 3][1] + msgs[t - 1][2]) % 3
        assert coded[t][3] == p0
        assert coded[t][4] == p1
    # the published table's t=4 column
    t = 4
    assert coded[4][3] == (msgs[2][0] + msgs[3][1] + msgs[0][2]) % 3
    assert coded[4][4] == (msgs[0][0] + 2 * msgs[1][1] + msgs[3][2]) % 3


def test_parity_372_closed_form():
    # short regime with u=2, v=1, ell=1: expansion worked out by hand from
    # the construction sums
    code = make_lrsc(3, 7, 2)
    f = code.field
    g = code.weights.rows
    msgs = random_stream(random.Random(5), 16, 5, 24)
    coded = _encode(code, msgs)

    def term(c, s):
        return f.mul(c, s)

    for t in range(8, 24):
        p0 = 0
        for c, s in [(g[0][0], msgs[t - 2][0]), (g[1][0], msgs[t - 1][1]),
                     (g[0][1], msgs[t - 4][4]),
                     (g[0][2], msgs[t - 7][2]), (g[1][2], msgs[t - 6][3])]:
            p0 = f.add(p0, term(c, s))
        p1 = 0
        for c, s in [(g[0][0], msgs[t - 2][2]), (g[1][0], msgs[t - 1][3]),
                     (g[0][1], msgs[t - 5][0]), (g[1][1], msgs[t - 4][1]),
                     (g[0][2], msgs[t - 7][4])]:
            p1 = f.add(p1, term(c, s))
        p2 = 0
        for c, s in [(g[0][0], msgs[t - 1][4]),
                     (g[0][1], msgs[t - 4][2]), (g[1][1], msgs[t - 3][3]),
                     (g[0][2], msgs[t - 7][0]), (g[1][2], msgs[t - 6][1])]:
            p2 = f.add(p2, term(c, s))
        assert coded[t][5:] == (p0, p1, p2)


def test_mds_de_12_closed_form():
    code = MdsDeCode(1, 2)
    msgs = random_stream(random.Random(6), 2, 2, 16)
    coded = _encode(code, msgs)
    for t in range(3, 16):
        assert coded[t][2] == (msgs[t - 2][0] + msgs[t - 1][1]) % 2


def test_mds_de_25_closed_form():
    code = MdsDeCode(2, 5)
    assert code.field.q == 5
    msgs = random_stream(random.Random(7), 5, 4, 20)
    coded = _encode(code, msgs)
    for t in range(6, 20):
        p0 = (msgs[t - 4][0] + msgs[t - 3][1] + msgs[t - 2][2] + msgs[t - 1][3]) % 5
        p1 = (msgs[t - 5][0] + 2 * msgs[t - 4][1] + 3 * msgs[t - 3][2] + 4 * msgs[t - 2][3]) % 5
        assert coded[t][4:] == (p0, p1)


# recorded with the power-form parity block the baseline tried before the
# shared superregular search; every diagonal is an independent MDS
# codeword, so the block that search returns changes no outcome
@pytest.mark.parametrize("a,tau,summaries,eps,lost,hist", [
    (3, 7, ["patterns=261 failures=0 max_delay[1]=5 max_delay[2]=6 max_delay[3]=7",
            "patterns=576 failures=315 max_delay[1]=5 max_delay[2]=6 max_delay[3]=7"],
     0.1, 125, {0: 17993, 5: 1183, 6: 563, 7: 136}),
    (4, 9, ["patterns=1430 failures=0 max_delay[1]=6 max_delay[2]=7 max_delay[3]=8 max_delay[4]=9",
            "patterns=2816 failures=1386 max_delay[1]=6 max_delay[2]=7 max_delay[3]=8 max_delay[4]=9"],
     0.3, 2914, {0: 13970, 6: 695, 7: 1088, 8: 889, 9: 444}),
])
def test_mds_de_outcomes_pinned(a, tau, summaries, eps, lost, hist):
    code = MdsDeCode(a, tau)
    assert [verify_stream(code, h, tau).summary() for h in (a, a + 1)] == summaries
    res = run_sim(code, PecChannel(eps, 1234), 20000)
    assert (res.lost, dict(res.delay_hist)) == (lost, hist)


def test_mds_de_field_too_small():
    with pytest.raises(ValueError):
        MdsDeCode(2, 5, q_override=3)


@pytest.mark.parametrize("a,tau,match", [(0, 5, "a must be at least 1, got a=0"),
                                         (-2, 5, "a must be at least 1, got a=-2"),
                                         (6, 5, "a must not exceed tau, got a=6, tau=5")])
def test_mds_de_needs_a_from_1_to_tau(a, tau, match):
    with pytest.raises(ValueError, match=match):
        MdsDeCode(a, tau)


@pytest.mark.parametrize("build,args", [(make_lrsc, (2, 5, 2, True)), (make_lrsc, (2, 5, 2, 3.0)),
                                        (MdsDeCode, (2.0, 5)), (MdsDeCode, (2, True)),
                                        (MdsDeCode, (2, 5, 5.0)), (MdsDeCode, (1, 2, True))])
def test_codes_take_only_int_parameters(build, args):
    with pytest.raises(ValueError, match="must be ints, got"):
        build(*args)


@pytest.mark.parametrize("make", [
    lambda: make_lrsc(2, 5, 2),
    lambda: make_lrsc(2, 4, 2),
    lambda: make_lrsc(3, 7, 2),
    lambda: make_lrsc(3, 8, 3),
    lambda: MdsDeCode(2, 5),
    lambda: make_lrsc(4, 11, 2),        # GF(625), from the tables
    lambda: make_lrsc(4, 9, 2, 17),     # GF(83521), pair arithmetic
])
def test_templates_match_closed_forms(make):
    # the encoder and the decoder share one parity route, so only this
    # scalar sum over the templates can catch a wrong coefficient or sign
    # in it
    code = make()
    f = code.field
    msgs = random_stream(random.Random(8), f.order, code.k, 40)
    hist = dict(enumerate(msgs))
    enc = Encoder(code)
    for t in range(40):
        parities = enc.push(msgs[t])[code.k:]
        for i in range(code.n - code.k):
            via_terms = 0
            for j, d, c in code.templates[i]:
                if d <= t:
                    via_terms = f.add(via_terms, f.mul(c, msgs[t - d][j]))
            assert via_terms == closed_form_parity(code, i, hist, t)
            assert parities[i] == via_terms, (t, i)


def test_templates_sorted_by_time_then_symbol():
    for code in (make_lrsc(2, 5, 2), make_lrsc(3, 7, 2)):
        for tpl in code.templates:
            keyed = [(-d, j) for (j, d, _) in tpl]
            assert keyed == sorted(keyed)


def test_no_parity_reaches_past_tau():
    # a history of tau+1 packets suffices for every construction
    codes = [make_lrsc(2, 5, 2), make_lrsc(2, 4, 2), make_lrsc(3, 7, 2),
             make_lrsc(3, 8, 3), make_lrsc(4, 9, 3), make_lrsc(3, 4, 3),
             MdsDeCode(2, 5)]
    for code in codes:
        for tpl in code.templates:
            assert max(d for (_, d, _) in tpl) <= code.tau
            assert min(d for (_, d, _) in tpl) >= 1


def test_linearity():
    code = make_lrsc(2, 4, 2)
    rng = random.Random(9)
    s1 = random_stream(rng, 3, 3, 18)
    s2 = random_stream(rng, 3, 3, 18)
    s3 = [tuple((a + b) % 3 for a, b in zip(m1, m2)) for m1, m2 in zip(s1, s2)]
    c1, c2, c3 = _encode(code, s1), _encode(code, s2), _encode(code, s3)
    for p1, p2, p3 in zip(c1, c2, c3):
        assert tuple((a + b) % 3 for a, b in zip(p1, p2)) == p3


def test_causality_and_bounded_memory():
    code = make_lrsc(2, 5, 2)
    rng = random.Random(10)
    base = random_stream(rng, 3, 2, 30)

    # future change: parities up to t unchanged
    fut = list(base)
    fut[20] = tuple((s + 1) % 3 for s in fut[20])
    for p_old, p_new in zip(_encode(code, base)[:20], _encode(code, fut)[:20]):
        assert p_old == p_new

    # change older than t - tau: parity at t unchanged
    old = list(base)
    old[0] = tuple((s + 1) % 3 for s in old[0])
    c_base, c_old = _encode(code, base), _encode(code, old)
    for t in range(6, 30):            # 0 < t - tau from t = 6 on
        assert c_base[t][2] == c_old[t][2]


def test_encoder_validates_input():
    code = make_lrsc(2, 5, 2)
    enc = Encoder(code)
    with pytest.raises(ValueError):
        enc.push((1, 2, 0))
    with pytest.raises(ValueError):
        enc.push((1, 3))
    with pytest.raises(ValueError, match="symbol True is not an element"):
        enc.push((True, 2))          # a bool is no field element, though bool subclasses int


@pytest.mark.parametrize("message", [5, 1.5, None], ids=["int", "float", "none"])
def test_encoder_refuses_a_message_that_is_no_sequence(message):
    # each raised a bare TypeError from tuple(); refused, it takes no time
    code = make_lrsc(2, 5, 2)
    enc = Encoder(code)
    with pytest.raises(ValueError, match="expected a sequence of 2 symbols"):
        enc.push(message)
    assert enc.next_t == 0 and enc.push((1, 2)) == _encode(code, [(1, 2)])[0]


@pytest.mark.parametrize("make", [set, frozenset, dict.fromkeys], ids=["set", "frozenset", "dict"])
@pytest.mark.parametrize("side", ["encoder", "decoder"])
def test_a_packet_with_a_length_but_no_order_is_no_sequence(side, make):
    # each has a length and iterates: the decoder raised a bare TypeError
    # from slicing it, and the encoder encoded a dict's keys as the
    # message; refused, it takes no time
    code = make_lrsc(2, 5, 2)
    coded = _encode(code, [(1, 2)])[0]
    enc, dec = Encoder(code), Decoder(code)
    push, width = {"encoder": (enc.push, code.k), "decoder": (lambda p: dec.push(0, p), code.n)}[side]
    packet = make(range(width))
    with pytest.raises(ValueError, match=f"expected a sequence of {width} symbols, "
                                         f"got an object of type {type(packet).__name__}$"):
        push(packet)
    assert enc.push((1, 2)) == coded and dec.push(0, coded)[0].message == (1, 2)


@pytest.mark.parametrize("make", [lambda: make_lrsc(2, 3, 1), lambda: make_lrsc(3, 7, 2),
                                  lambda: MdsDeCode(2, 5)], ids=["lrsc-2-3-1", "lrsc-3-7-2", "mds-de-2-5"])
def test_encoder_window_gives_the_closed_form_diagonal_parities(make):
    # over 3(tau+1) pushes the window wraps twice: every packet is its
    # message and the construction's diagonal sums, and the window holds
    # the last tau+1 messages, packet t at slot (t mod (tau+1))*k, with
    # its parity slots left at 0
    code = make()
    k, span = code.k, code.tau + 1
    msgs = random_stream(random.Random(15), code.field.order, k, 3 * span)
    hist = dict(enumerate(msgs))
    enc = Encoder(code)
    for t, m in enumerate(msgs):
        assert enc.push(m) == m + tuple(closed_form_parity(code, i, hist, t) for i in range(code.n - k)), t
        for u in range(max(0, t - code.tau), t + 1):
            assert enc.window[u % span * k:u % span * k + k] == list(msgs[u]), (t, u)
        assert enc.window[span * k:] == [0] * (code.n - k)


def test_wrong_regime_symbol_count():
    short = derive_params(2, 4, 2)
    assert short.k == 3
    enc = Encoder(LrscCode(short))
    with pytest.raises(ValueError):
        enc.push((1, 2))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                min_size=6, max_size=16))
def test_hypothesis_template_equals_closed_form_242(msgs):
    code = make_lrsc(2, 4, 2)
    hist = dict(enumerate(msgs))
    for t in range(len(msgs)):
        for i in range(2):
            via = 0
            for j, d, c in code.templates[i]:
                if d <= t:
                    via = code.field.add(via, code.field.mul(c, msgs[t - d][j]))
            assert via == closed_form_parity(code, i, hist, t)
