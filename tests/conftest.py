"""Shared test helpers: independent oracles kept deliberately separate from
the library's own code paths.

The naive tower multiplier works on nested coefficient tuples with its own
base-field polynomial arithmetic; the Leibniz determinant expands over
permutations.  Both exist so that construction checks inside the library
(elimination-based) are cross-examined by a different route here.  ``rref``
and ``pinned_coordinates`` are the dense Gauss-Jordan reference for the
library's one sparse incremental elimination, ``matrix.Echelon``, which
``rank``, ``in_span`` and the decoder's transition table all run on.  The
closed-form parity expressions read the constructions' diagonal sums
straight off the message history, as the reference for the coefficient
templates that the encoder and decoder use.
``value_path_outcomes`` is the encoder-and-decoder run on random messages
that the simulator's all-zero stream stands for, on a Bernoulli channel or
on a ``ReplayChannel`` of fixed erasure times, and
``explain_losses_reference`` the brute-force form of the loss-cause scan.
``verify_stream_reference`` replays every oracle pattern on a fresh decoder
of its own (``anchor_recovery_reference``), the run that ``verify_stream``'s
one forked decoder walk per anchor stands for.  ``pushes_through`` records a
decoder's outcomes and rows push by push, so that a fork replaying the
plans of a filled table can be held to a fresh decoder, and ``missing``
reads a decoder's unresolved packets off its state.  ``log_tables_reference``
finds each field's generator by walking its candidates' powers until they
return to 1, the search that the library's order test stands for.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from lrsc import gf
from lrsc.codec import DecodeError, Decoder, Encoder
from lrsc.oracle import Failure, VerificationReport, _random_stream


# -- independent arithmetic on the ints of a tower's level 1, GF(q) = GF(p^m),
#    via polynomial reduction by the library's degree-m irreducible --

@functools.cache
def base_polynomial(p, m):
    """The monic irreducible over GF(p) that reduces level 1, GF(p^m)."""
    return gf._monic_irreducible(p, m)


@functools.cache
def level_quadratic(q, lvl):
    """(lin, const) of the quadratic x^2 + lin x + const over level lvl-1
    that level lvl of a tower over GF(q) adjoins a root of."""
    level = gf.TowerField(q, lvl)
    return level._lin, level._const


def _base_digits(x, p, m):
    out = []
    for _ in range(m):
        x, d = divmod(x, p)
        out.append(d)
    return out


def _base_undigits(ds, p):
    acc = 0
    for d in reversed(ds):
        acc = acc * p + d
    return acc


def naive_base_mul(tower, a, b):
    p, m = tower.p, tower.m
    da, db = _base_digits(a, p, m), _base_digits(b, p, m)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    poly = base_polynomial(p, m)
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            for j in range(m + 1):
                prod[i - m + j] = (prod[i - m + j] - c * poly[j]) % p
    return _base_undigits(prod[:m], p)


def naive_base_add(tower, a, b):
    p, m = tower.p, tower.m
    return _base_undigits(
        [(x + y) % p for x, y in zip(_base_digits(a, p, m), _base_digits(b, p, m))], p)


def naive_base_neg(tower, a):
    p, m = tower.p, tower.m
    return _base_undigits([(p - x) % p for x in _base_digits(a, p, m)], p)


# -- independent tower arithmetic on nested pairs --

def _to_pair(tower, x, lvl):
    if lvl == 1:
        return x
    size = tower.level_order(lvl - 1)
    return (_to_pair(tower, x % size, lvl - 1), _to_pair(tower, x // size, lvl - 1))


def _from_pair(tower, v, lvl):
    if lvl == 1:
        return v
    size = tower.level_order(lvl - 1)
    return _from_pair(tower, v[0], lvl - 1) + _from_pair(tower, v[1], lvl - 1) * size


def _pair_add(tower, u, v, lvl):
    if lvl == 1:
        return naive_base_add(tower, u, v)
    return (_pair_add(tower, u[0], v[0], lvl - 1), _pair_add(tower, u[1], v[1], lvl - 1))


def _pair_neg(tower, u, lvl):
    if lvl == 1:
        return naive_base_neg(tower, u)
    return (_pair_neg(tower, u[0], lvl - 1), _pair_neg(tower, u[1], lvl - 1))


def _pair_mul(tower, u, v, lvl):
    if lvl == 1:
        return naive_base_mul(tower, u, v)
    lin, const = level_quadratic(tower.q, lvl)
    lin_p = _to_pair(tower, lin, lvl - 1)
    const_p = _to_pair(tower, const, lvl - 1)
    a0, a1 = u
    b0, b1 = v
    p00 = _pair_mul(tower, a0, b0, lvl - 1)
    p11 = _pair_mul(tower, a1, b1, lvl - 1)
    cross = _pair_add(tower, _pair_mul(tower, a0, b1, lvl - 1),
                      _pair_mul(tower, a1, b0, lvl - 1), lvl - 1)
    lo = _pair_add(tower, p00, _pair_neg(tower, _pair_mul(tower, const_p, p11, lvl - 1), lvl - 1), lvl - 1)
    hi = _pair_add(tower, cross, _pair_neg(tower, _pair_mul(tower, lin_p, p11, lvl - 1), lvl - 1), lvl - 1)
    return (lo, hi)


def naive_tower_mul(tower, x, y):
    lvl = tower.levels
    return _from_pair(tower, _pair_mul(tower, _to_pair(tower, x, lvl), _to_pair(tower, y, lvl), lvl), lvl)


def naive_tower_add(tower, x, y):
    lvl = tower.levels
    return _from_pair(tower, _pair_add(tower, _to_pair(tower, x, lvl), _to_pair(tower, y, lvl), lvl), lvl)


def naive_tower_neg(tower, x):
    lvl = tower.levels
    return _from_pair(tower, _pair_neg(tower, _to_pair(tower, x, lvl), lvl), lvl)


# -- the table build that the library's order test and power listing stand
#    for --

def log_tables_reference(order, p, mul):
    """exp, log and Zech tables of GF(order), of characteristic p, from its
    mul, walking each candidate's powers until they return to 1.

    g is the smallest element whose powers take n = order - 1 steps to
    return to 1.  ``exp`` holds its powers twice, then n zeros; ``zech[d]``
    is log(1 + g^d), or 2n where 1 + g^d = 0.  Stored twice, ``zech`` wraps
    any index in (-n, 2n).  -1 = g^half."""
    n = order - 1
    for g in range(1, order):
        powers = [1]
        x = g
        while x != 1 and len(powers) <= n:
            powers.append(x)
            x = mul(x, g)
        if len(powers) == n:
            break
    else:
        raise RuntimeError(f"no multiplicative generator of GF({order})")
    log = [0] * order
    for i, x in enumerate(powers):
        log[x] = i
    zech = [log[s] if s else 2 * n for s in (x - x % p + (x + 1) % p for x in powers)]
    half = zech.index(2 * n)
    return powers * 2 + [0] * n, log, zech * 2, half


# -- independent determinant and minor enumeration --

def leibniz_det(field, rows):
    n = len(rows)
    acc = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = 1
        for i in range(n):
            term = field.mul(term, rows[i][perm[i]])
        if inversions % 2:
            term = field.neg(term)
        acc = field.add(acc, term)
    return acc


def all_minors_nonzero(field, rows):
    """Exhaustive minor enumeration with the permutation-expansion
    determinant; independent of the library's elimination route."""
    nr, nc = len(rows), len(rows[0])
    for z in range(1, min(nr, nc) + 1):
        for ii in itertools.combinations(range(nr), z):
            for jj in itertools.combinations(range(nc), z):
                sub = [[rows[i][j] for j in jj] for i in ii]
                if leibniz_det(field, sub) == 0:
                    return False
    return True


# -- subfield membership, read two ways --

def in_subfield(f, x, j):
    """Membership in the level-j subfield read off the int encoding."""
    return x < f.level_order(j)


def frobenius_fixed(f, x, j):
    """Field-theoretic membership test: x**level_order(j) == x."""
    return f.pow(x, f.level_order(j)) == x


# -- dense reference linear algebra --

def mat_vec(field, rows, vec):
    out = []
    for row in rows:
        acc = 0
        for c, x in zip(row, vec):
            if c and x:
                acc = field.add(acc, field.mul(c, x))
        out.append(acc)
    return out


def mat_add(field, a, b):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rref(field, rows, rhs=None):
    """Gauss-Jordan reduced row echelon form; returns (rows, rhs, pivot_columns)."""
    work = [list(r) for r in rows]
    b = list(rhs) if rhs is not None else None
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    pr = 0
    for col in range(ncols):
        piv = None
        for i in range(pr, nrows):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        if b is not None:
            b[pr], b[piv] = b[piv], b[pr]
        s = field.inv(work[pr][col])
        if s != 1:
            work[pr] = [field.mul(s, v) for v in work[pr]]
            if b is not None:
                b[pr] = field.mul(s, b[pr])
        for i in range(nrows):
            if i != pr and work[i][col]:
                f = work[i][col]
                prow = work[pr]
                work[i] = [field.sub(v, field.mul(f, pv)) for v, pv in zip(work[i], prow)]
                if b is not None:
                    b[i] = field.sub(b[i], field.mul(f, b[pr]))
        pivots.append(col)
        pr += 1
        if pr == nrows:
            break
    return work, b, pivots


def pinned_coordinates(field, rows, rhs):
    """Coordinates forced to a single value by the system, even when the
    system as a whole is underdetermined."""
    work, b, pivots = rref(field, rows, rhs)
    for i in range(len(pivots), len(work)):
        if b[i] != 0:
            raise ValueError("inconsistent system")
    out = {}
    for i, col in enumerate(pivots):
        if sum(1 for v in work[i] if v) == 1:
            out[col] = b[i]
    return out


def subfield_perturbation(tower, nrows, ncols, seed):
    """Seeded random matrix vanishing on the first two lag columns, with
    lag-j entries confined to the level-(j-1) subfield."""
    if ncols - 1 > tower.levels:
        raise ValueError(f"{ncols} columns need a tower with at least {ncols - 1} levels")
    rng = random.Random(seed)
    rows = []
    for _ in range(nrows):
        row = [0, 0][:min(2, ncols)]
        for j in range(2, ncols):
            row.append(rng.randrange(tower.level_order(j - 1)))
        rows.append(tuple(row))
    return tuple(rows)


def check_decoder_invariants(dec):
    """Assert the decoder's rows are in reduced echelon form over its live
    unknowns: each row is 1 at its own pivot, its smallest id, which no
    other row holds, and stores no zero coefficient.  The unresolved
    symbols and missing packets, read from the state, are exactly the None
    symbols of the records and the packets whose record holds one, and the
    records are those of the last tau+1 times."""
    assert sorted(dec.known) == list(range(max(0, dec.next_t - dec.tau - 1), dec.next_t))
    assert dec.unknowns == {(t, j) for t, s in dec.known.items() for j, v in enumerate(s) if v is None}
    assert missing(dec) == {t for t, s in dec.known.items() if None in s}
    for pid, (coeffs, _) in dec.rows.items():
        assert coeffs.get(pid) == 1
        assert pid == min(coeffs)
        assert all(coeffs.values())
        assert {divmod(c, dec.k) for c in coeffs} <= dec.unknowns
        for qid, (qc, _) in dec.rows.items():
            if qid != pid:
                assert pid not in qc


def missing(dec):
    """The packets that still have an unresolved symbol, read from the
    decoder's state."""
    return {dec.next_t + i // dec.k for i in dec.state.ids}


def pushes_through(dec, packets):
    """Push each packet (its symbols, or None for an erasure) at the
    decoder's next time.  Returns, per push, its outcomes as (t, recovered,
    delay, message) and the rows it left, as {pivot: (coeffs, rhs)}; a
    DecodeError ends the list with its message."""
    out = []
    for packet in packets:
        try:
            events = dec.push(dec.next_t, packet)
        except DecodeError as e:
            out.append(("DecodeError", str(e)))
            break
        out.append(([(ev.t, ev.recovered, ev.delay, ev.message) for ev in events],
                    {pid: (dict(cf), v) for pid, (cf, v) in dec.rows.items()}))
    return out


def random_stream(rng, order, k, length):
    return [tuple(rng.randrange(order) for _ in range(k)) for _ in range(length)]


# -- closed-form parity values over diagonals of the message history --

def diagonal_slice(history, start, width):
    """[m_0(start), m_1(start+1), ..., m_{width-1}(start+width-1)].

    Negative times read as zero; a missing nonnegative time is a sequencing
    bug and raises KeyError.
    """
    out = []
    for i in range(width):
        tt = start + i
        out.append(history[tt][i] if tt >= 0 else 0)
    return out


def block_slice(history, block, start, span, width):
    """Diagonal read of message block `block`: symbol block*span+w of the
    packet at time start+w for w < width, zero padded out to span entries."""
    out = []
    for w in range(span):
        if w < width:
            tt = start + w
            out.append(history[tt][block * span + w] if tt >= 0 else 0)
        else:
            out.append(0)
    return out


def closed_form_parity(code, i, history, t):
    """Parity i at time t from the construction's diagonal sums, as
    (message slice, weight column) dot products."""
    p = code.params
    if p is None:
        # diagonal MDS baseline: parity i closes the diagonal that started
        # at t - (k+i)
        parts = [(diagonal_slice(history, t - code.k - i, code.k), [row[i] for row in code.pg])]
    elif p.regime != "short":
        parts = [(diagonal_slice(history, t - p.r - j * (p.r + 1), p.r), code.weights.column(j))
                 for j in range(p.a)]
    else:
        column = code.weights.column
        u, v, ell, r, a = p.u, p.v, p.ell, p.r, p.a
        parts = []
        if i < u:
            for j in range(i + 1):
                block = i - j
                parts.append((block_slice(history, block, t - r - j * (r + 1), r, r), column(j)))
            for j in range(i, u):
                block = u + i - j
                width = v if block == u else r
                parts.append((block_slice(history, block, t - r - j * (r + 1) - v - ell, r, width),
                              column(a - u + j)))
        else:
            ii = i - u
            for j in range(u + 1):
                block = u - j
                width = v if block == u else r
                parts.append((block_slice(history, block, t - v - ii - j * (r + 1), r, width),
                              column(j + ii)))
    f = code.field
    acc = 0
    for vec, col in parts:
        for x, c in zip(vec, col):
            if x:
                acc = f.add(acc, f.mul(x, c))
    return acc


def stream_codeword(code, messages, t):
    """Block codeword carried by the stream at offset t (exact regime):
    the a diagonal slices starting at t, t+r+1, ... followed by the a
    parities with earlier contributions stripped.  Satisfies H w = 0."""
    p = code.params
    if p is None or p.regime == "short":
        raise ValueError("stream codewords of this layout exist in the exact and long regimes only")
    f = code.field
    a, r = p.a, p.r
    history = {i: m for i, m in enumerate(messages)}
    enc = Encoder(code)
    coded = [enc.push(m) for m in messages]
    w = []
    for j in range(a):
        w.extend(diagonal_slice(history, t + j * (r + 1), r))
    for ell in range(1, a + 1):
        s = t + ell * (r + 1) - 1
        acc = coded[s][code.k]
        for j in range(ell, a):
            vec = diagonal_slice(history, t + (ell - 1 - j) * (r + 1), r)
            col = code.weights.column(j)
            for ww in range(r):
                if vec[ww]:
                    acc = f.sub(acc, f.mul(vec[ww], col[ww]))
        w.append(acc)
    return w


# -- the value path the simulator's all-zero stream stands for --

@dataclass(frozen=True)
class ReplayChannel:
    """A channel that erases exactly ``times``; ``eps`` -1.0 marks a run
    that no erasure probability drew."""
    times: frozenset
    eps = -1.0

    def erased(self, t):
        return t in self.times


def value_path_outcomes(code, channel, packets, seed):
    """Random messages through encoder, channel and decoder for packets +
    tau + 1 steps, the run that ``run_sim``'s all-zero stream stands for.
    Asserts that every recovered message is the one sent; returns the
    outcomes in the order the decoder settled them."""
    rng = random.Random(seed)
    enc, dec = Encoder(code), Decoder(code)
    sent, outcomes = {}, []
    for t in range(packets + code.tau + 1):
        pkt = enc.push(tuple(rng.randrange(code.field.order) for _ in range(code.k)))
        sent[t] = pkt[:code.k]
        for ev in dec.push(t, None if channel.erased(t) else pkt):
            if ev.recovered:
                assert ev.message == sent[ev.t], (ev.t, ev.message, sent[ev.t])
            outcomes.append(ev)
    return outcomes


def explain_losses_reference(erased_times, lost_times, a, tau):
    """Brute force: a loss is explained by more than a erasures in some
    length tau+1 window covering it, found by counting every erasure for
    every window, or by an explained loss at most tau earlier."""
    erased = sorted(erased_times)
    explained = set()
    for t in sorted(lost_times):
        over = False
        for w0 in range(t - tau, t + 1):
            cnt = sum(1 for e in erased if w0 <= e <= w0 + tau)
            if cnt > a:
                over = True
                break
        if over or any(t - tau <= t2 < t for t2 in explained):
            explained.add(t)
    return sorted(set(lost_times) - explained)


# -- the per-pattern replay that verify_stream's decoder walk stands for --

def anchor_recovery_reference(code, coded, erased, anchor, deadline, decoder=Decoder):
    """Push every packet from time 0 into a fresh decoder, up to
    anchor+deadline, with the times in ``erased`` erased, every received
    parity checked; return (delay, message) for the anchored packet or None
    if it never resolved in time."""
    dec = decoder(code)
    for t in range(anchor + deadline + 1):
        for ev in dec.push(t, None if t in erased else coded[t]):
            if ev.t == anchor and ev.recovered:
                return ev.delay, ev.message
    return None


def verify_stream_reference(code, budget, deadline, trials=1, seed=0, decoder=Decoder):
    """``verify_stream``'s report, with every pattern replayed on its own
    fresh decoder."""
    horizon = 3 * (max(code.tau, deadline) + 1)
    report = VerificationReport(
        description=f"stream {code.label} budget={budget} deadline={deadline}")
    for trial in range(trials):
        messages = _random_stream(code, horizon, seed, trial)
        enc = Encoder(code)
        coded = [enc.push(m) for m in messages]
        for anchor in [0] + list(range(horizon // 3, (2 * horizon) // 3)):
            for size in range(1, budget + 1):
                for extra in itertools.combinations(range(anchor + 1, anchor + deadline + 1), size - 1):
                    pattern = (anchor,) + extra
                    report.pattern_count += 1
                    got = anchor_recovery_reference(code, coded, frozenset(pattern),
                                                    anchor, deadline, decoder)
                    if got is None:
                        report.failures.append(Failure(
                            pattern, f"packet {anchor} not recovered by {anchor + deadline}"))
                    elif got[1] != messages[anchor]:
                        report.failures.append(Failure(
                            pattern, f"packet {anchor} recovered with wrong symbols"))
                    elif got[0] > report.max_delay.get(len(pattern), -1):
                        report.max_delay[len(pattern)] = got[0]
    return report
