"""Exhaustive recoverability verification."""

import dataclasses
import itertools
import math
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import lrsc.codec
import lrsc.oracle
from lrsc.codec import Decoder, Encoder, MdsDeCode, make_lrsc
from lrsc.gf import make_tower
from lrsc.matrix import Echelon, parity_weights, stacked_parity_check, superregular_matrix
from lrsc.oracle import verify_scalar, verify_stream

from conftest import (anchor_recovery_reference, mat_vec, pushes_through, random_stream, rref,
                      stream_codeword, verify_stream_reference)


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


def _scalar_failures_by_rank(weights):
    """verify_scalar's failures by the dense rank: erased coordinate i < r
    fails iff its column does not raise the rank of the later erased columns."""
    f, r = weights.tower, len(weights.rows)
    cols = list(zip(*stacked_parity_check(weights)))
    def rank(vecs):
        return len(rref(f, vecs)[2])

    out = []
    for pattern in itertools.combinations(range(len(cols)), len(weights.rows[0])):
        for i in pattern:
            later = [cols[j] for j in pattern if j > i]
            if i < r and rank(later + [cols[i]]) == rank(later):
                out.append((pattern, f"coordinate {i} lies in the span of later erased columns"))
    return out


@pytest.mark.parametrize("q,r,a", [(3, 2, 2), (4, 2, 3), (5, 3, 2), (7, 2, 3)])
def test_scalar_failures_match_dense_rank(q, r, a):
    # negative control: weights from base rows that are not superregular make
    # verify_scalar report exactly the failing coordinates; the paper's
    # superregular weights report none
    f = make_tower(q, a)
    rng = random.Random(q * 100 + r * 10 + a)
    bases = [[[1] * a for _ in range(r)]]
    bases += [[[rng.randrange(q) for _ in range(a)] for _ in range(r)] for _ in range(3)]
    for base in bases:
        w = parity_weights(f, base)
        expected = _scalar_failures_by_rank(w)
        assert [(fl.pattern, fl.detail) for fl in verify_scalar(w).failures] == expected
    assert _scalar_failures_by_rank(parity_weights(f, bases[0]))
    paper = parity_weights(f, superregular_matrix(f, r, a))
    assert _scalar_failures_by_rank(paper) == [] and verify_scalar(paper).ok


@pytest.mark.parametrize("a,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_scalar_and_stream_agree(a, r):
    tau = a * (r + 1) - 1
    code = make_lrsc(a, tau, r)
    assert verify_scalar(code.weights).ok
    assert verify_stream(code, a, tau).ok


@pytest.mark.parametrize("kind,a,tau,r", [
    ("lrsc", 2, 5, 2), ("lrsc", 3, 8, 2), ("lrsc", 4, 11, 2),     # exact
    ("lrsc", 2, 6, 2), ("lrsc", 3, 13, 2),                        # long
    ("lrsc", 3, 7, 2), ("lrsc", 3, 8, 3), ("lrsc", 4, 9, 3),      # short
    ("mds", 2, 5, None), ("mds", 3, 8, None), ("mds", 4, 11, None)])
def test_worst_case_delay_profile(kind, a, tau, r):
    # h erasures are recovered within h(r+1)-1 steps, the local deadline of
    # graceful degradation, but never later than tau-a+h: the last of the
    # burst waits for the a-h parities beyond it.  MDS-DE has no locality.
    code = make_lrsc(a, tau, r) if kind == "lrsc" else MdsDeCode(a, tau)
    rep = verify_stream(code, a, tau)
    assert rep.ok
    bound = (lambda h: min(h * (r + 1) - 1, tau - a + h)) if r else (lambda h: tau - a + h)
    assert rep.max_delay == {h: bound(h) for h in range(1, a + 1)}


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


@pytest.mark.parametrize("budget,deadline,trials", [(2.5, 5, 1), (1, True, 1), (1, 5, True), (True, 5, 1)])
def test_stream_rejects_a_suite_of_non_ints(budget, deadline, trials):
    # 2.5 failed inside range, and True ran as 1
    with pytest.raises(ValueError, match="need budget .* each an int"):
        verify_stream(make_lrsc(2, 5, 2), budget, deadline, trials=trials)


@pytest.mark.parametrize("seed", [0.5, True])
def test_stream_rejects_a_non_int_seed(seed):
    # both ran, on a message stream seeded by a float or a bool
    with pytest.raises(ValueError, match="need budget .* seed, each an int"):
        verify_stream(make_lrsc(2, 5, 2), 1, 2, seed=seed)


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


# -- mutant decoders: the oracle must catch each of them --

class _LateDecoder(Decoder):
    """Reports each recovery one push late."""

    def __init__(self, code):
        super().__init__(code)
        self._held = []

    def push(self, t, packet):
        out = super().push(t, packet)
        late = [dataclasses.replace(ev, delay=ev.delay + 1) for ev in self._held]
        self._held = [ev for ev in out if ev.recovered]
        return late + [ev for ev in out if not ev.recovered]


class _WrongSymbolDecoder(Decoder):
    """Returns one wrong symbol in each recovered message."""

    def push(self, t, packet):
        add = self.code.field.add
        return [dataclasses.replace(ev, message=(add(ev.message[0], 1),) + ev.message[1:])
                if ev.recovered else ev for ev in super().push(t, packet)]


class _NoClearEchelon(Echelon):
    """Scales a new pivot row but leaves the pivot in the stored rows."""

    def _pivot(self, row, pid):
        self.rows[pid] = self._row_scale(row, self._inv(row[0][pid]))


class _NoClearDecoder(Decoder):
    """Computes the moves of its pushes in no-clear systems; its forks keep
    the class, and so stay mutant."""

    def push(self, t, packet):
        with mock.patch.object(lrsc.codec, "Echelon", _NoClearEchelon):
            return super().push(t, packet)


@pytest.mark.parametrize("mutant", [_LateDecoder, _WrongSymbolDecoder, _NoClearDecoder],
                         ids=["late", "wrong-symbol", "no-clear"])
@pytest.mark.parametrize("make", [lambda: make_lrsc(2, 5, 2), lambda: make_lrsc(3, 8, 2),
                                  lambda: MdsDeCode(2, 5)], ids=["lrsc-2-5-2", "lrsc-3-8-2", "mds-de-2-5"])
def test_oracle_catches_mutant_decoders(monkeypatch, make, mutant):
    code = make()
    a = code.params.a if code.params is not None else code.a
    assert verify_stream(code, a, code.tau).ok
    monkeypatch.setattr(lrsc.oracle, "Decoder", mutant)
    assert verify_stream(code, a, code.tau).failures


@pytest.mark.parametrize("make", [lambda: make_lrsc(2, 5, 2), lambda: make_lrsc(3, 8, 2),
                                  lambda: make_lrsc(3, 7, 2), lambda: make_lrsc(2, 6, 2),
                                  lambda: MdsDeCode(2, 5)],
                         ids=["lrsc-2-5-2", "lrsc-3-8-2", "lrsc-3-7-2", "lrsc-2-6-2", "mds-de-2-5"])
def test_every_anchor_gives_the_same_outcomes(make):
    # verify_stream checks anchor 0 and tau+1..2tau+1; anchors 1..tau, where
    # the parity templates are still clipped at t=0, must behave the same
    code = make()
    a, tau = (code.params.a if code.params is not None else code.a), code.tau
    msgs = random_stream(random.Random(5), code.field.order, code.k, 3 * (tau + 1))
    enc = Encoder(code)
    coded = [enc.push(m) for m in msgs]
    for budget in (a, a + 1):
        vectors = set()
        for anchor in range(2 * tau + 2):
            vector = []
            for size in range(1, budget + 1):
                for extra in itertools.combinations(range(anchor + 1, anchor + tau + 1), size - 1):
                    got = anchor_recovery_reference(code, coded, frozenset((anchor,) + extra), anchor, tau)
                    vector.append(None if got is None else got[0])
                    assert got is None or got[1] == msgs[anchor]
            vectors.add(tuple(vector))
        assert len(vectors) == 1
        assert (None in vector) == (budget > a)


def _walk_cases():
    """(code factory args, budget, deadline, trials, seed, mutant decoder)."""
    cases = []
    for a, tau, r in [(2, 5, 2), (3, 8, 2), (3, 7, 2), (2, 6, 2)]:
        for budget, deadline in [(a, tau), (1, r), (a + 1, tau)]:
            cases.append(((a, tau, r), budget, deadline, 1, 0, None))
    for budget, deadline in [(2, 5), (3, 5), (1, 2)]:   # (1, 2) fails every pattern
        cases.append(((2, 5), budget, deadline, 1, 0, None))
    cases += [
        ((1, 2), 2, 5, 1, 0, None),                 # fails {t, t+1} and {t, t+2}
        ((2, 5, 2), 1, 0, 1, 0, None),              # deadline 0: only the erased anchor
        ((2, 5, 2), 2, 0, 1, 0, None),
        ((2, 5, 2), 4, 2, 1, 0, None),              # budget past deadline+1
        ((3, 8, 2), 3, 8, 2, 3, None),
    ]
    for mutant in (_LateDecoder, _WrongSymbolDecoder, _NoClearDecoder):
        for args in [(2, 5, 2), (3, 8, 2), (2, 5)]:
            cases.append((args, args[0], args[1], 1, 0, mutant))     # (a, tau)

    def name(args, budget, deadline, trials, seed, mutant):
        code = ("lrsc-" if len(args) == 3 else "mds-de-") + "-".join(map(str, args))
        return (f"{code}-b{budget}-d{deadline}" + (f"-t{trials}-s{seed}" if trials > 1 else "")
                + (f"-{mutant.__name__.strip('_')}" if mutant else ""))

    return [pytest.param(*c, id=name(*c)) for c in cases]


@pytest.mark.parametrize("args,budget,deadline,trials,seed,mutant", _walk_cases())
def test_walk_matches_per_pattern_replay(monkeypatch, args, budget, deadline, trials, seed, mutant):
    # the one forked decoder walk per anchor reports exactly what replaying
    # every pattern on a fresh decoder reports, failures in the same order;
    # three factory args make an LRSC, two an MDS-DE code
    code = make_lrsc(*args) if len(args) == 3 else MdsDeCode(*args)
    decoder = Decoder
    if mutant is not None:
        monkeypatch.setattr(lrsc.oracle, "Decoder", mutant)
        decoder = mutant
    got = verify_stream(code, budget, deadline, trials=trials, seed=seed)
    want = verify_stream_reference(code, budget, deadline, trials=trials, seed=seed, decoder=decoder)
    assert got.summary() == want.summary()
    assert [(f.pattern, f.detail) for f in got.failures] == [(f.pattern, f.detail) for f in want.failures]


@pytest.mark.parametrize("mutant", [_LateDecoder, _WrongSymbolDecoder, _NoClearDecoder],
                         ids=["late", "wrong-symbol", "no-clear"])
@pytest.mark.parametrize("make", [lambda: make_lrsc(2, 5, 2), lambda: make_lrsc(3, 8, 2),
                                  lambda: MdsDeCode(2, 5)], ids=["lrsc-2-5-2", "lrsc-3-8-2", "mds-de-2-5"])
def test_a_mutant_replays_the_plans_of_its_own_pushes(make, mutant):
    # a move is computed through the insert and _pivot of a system of its
    # own: the no-clear mutant's moves, rows and all, replay on a fork of a
    # filled table as a fresh mutant computes them
    code = make()
    rng = random.Random(17)
    enc = Encoder(code)
    coded = [enc.push(m) for m in random_stream(rng, code.field.order, code.k, 120)]
    runs = [[None if rng.random() < p else pkt for pkt in coded] for p in (0.2, 0.3, 0.2)]
    root = mutant(code)
    pushes_through(root.fork(), runs[0])
    pushes_through(root.fork(), runs[1])
    replayed = root.table.replayed
    assert pushes_through(root.fork(), runs[2]) == pushes_through(mutant(code), runs[2])
    assert root.table.replayed > replayed


def _battery():
    """verify_all.py's stream suites, as (code args, budget, deadline)."""
    suites = []
    for a, tau, r in [(a, a * (r + 1) - 1, r) for a in (2, 3, 4) for r in (1, 2, 3)] + [
            (2, 4, 2), (3, 7, 2), (3, 8, 3), (4, 9, 3)]:
        suites += [((a, tau, r), a, tau), ((a, tau, r), 1, r)]
    for a, r in [(3, 2), (4, 1), (4, 2)]:
        suites += [((a, a * (r + 1) - 1, r), h, h * (r + 1) - 1) for h in range(1, a + 1)]
    return suites


def test_the_first_anchor_records_every_transition(monkeypatch):
    # the decoder table holds a move per (state, flag): verify_stream's
    # first anchor's walk meets every one a walk takes, the clean pushes
    # to the next anchor add one, the clean received move, and every later
    # push replays them, so a suite records a fixed number of transitions,
    # independent of seed; a decoder's table holds only moves with a plan
    per_anchor, tables = [], {}
    walk = lrsc.oracle.walk

    def counted(dec, *args):
        tables[id(dec.table)] = dec.table
        before = dec.table.recorded
        yield from walk(dec, *args)
        per_anchor.append(dec.table.recorded - before)

    monkeypatch.setattr(lrsc.oracle, "walk", counted)
    recorded, total = {}, 0
    for args, budget, deadline in _battery():
        per_anchor.clear()
        rep = verify_stream(make_lrsc(*args), budget, deadline)
        assert rep.transitions == per_anchor[0] + 1 and not any(per_anchor[1:]), (args, budget, deadline)
        recorded[args, budget, deadline] = rep.transitions, rep.replays
        total += rep.transitions
    moves = [m for table in tables.values() for st in table.states for m in st.moves if m]
    assert len(moves) == total == 2165
    assert all(m[2] is not None for m in moves)
    assert recorded[(2, 5, 2), 2, 5] == (13, 82)
    assert recorded[(4, 11, 2), 4, 11][0] == 223
    assert recorded[(4, 15, 3), 4, 15][0] == 832
    rep = verify_stream(make_lrsc(2, 5, 2), 2, 5, trials=2, seed=9)
    assert (rep.transitions, rep.replays) == (26, 164)     # one table per trial


def test_verify_all_output_is_golden():
    # the whole battery as a script: every suite's summary line and the exit
    # code, pinned by a file recorded from the per-pattern replay
    root = Path(__file__).resolve().parent.parent
    res = subprocess.run([sys.executable, str(root / "scripts" / "verify_all.py")],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (root / "tests" / "golden" / "verify_all.out").read_text()
