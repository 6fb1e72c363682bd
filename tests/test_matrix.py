"""Matrix constructions and exact linear algebra."""

import itertools
import random

import pytest

from lrsc.gf import make_tower
from lrsc.matrix import (Echelon, in_span, is_superregular, parity_weights,
                         stacked_parity_check, superregular_matrix)

from conftest import (all_minors_nonzero, echelon_rank, in_subfield, leibniz_det, mat_add,
                      mat_vec, pinned_coordinates, rref, subfield_perturbation)


def test_superregular_2x2_matches_published_choice():
    f = make_tower(3, 2)
    assert superregular_matrix(f, 2, 2) == ((1, 1), (1, 2))


def test_superregular_1x1():
    f = make_tower(2, 2)
    m = superregular_matrix(f, 1, 1)
    assert m[0][0] != 0


def test_superregular_2x3_minor_oracle():
    f = make_tower(4, 3)
    m = superregular_matrix(f, 2, 3)
    assert all_minors_nonzero(f, m)
    assert m == ((1, 1, 1), (1, 2, 3))


def test_superregular_rejects_small_field():
    with pytest.raises(ValueError):
        superregular_matrix(make_tower(3, 2), 2, 3)


def test_superregular_rs_fallback():
    # 3x3 over GF(5): the power form has a vanishing minor (2^2 == 3^2),
    # so the doubly extended Reed-Solomon parity part must kick in
    f = make_tower(5, 3)
    powm = [[f.pow(j + 1, i) for j in range(3)] for i in range(3)]
    assert not all_minors_nonzero(f, powm)
    m = superregular_matrix(f, 3, 3)
    assert all_minors_nonzero(f, m)


def test_superregular_cauchy_fallback():
    # 3x4 over GF(7): power form fails (3^2 == 4^2 == 2), q >= rows+cols
    f = make_tower(7, 4)
    powm = [[f.pow(j + 1, i) for j in range(4)] for i in range(3)]
    assert not all_minors_nonzero(f, powm)
    m = superregular_matrix(f, 3, 4)
    assert all_minors_nonzero(f, m)


@pytest.mark.parametrize("q,r,a", [(2, 1, 2), (3, 1, 3), (4, 1, 4), (5, 2, 4), (4, 3, 2)])
def test_superregular_grid(q, r, a):
    f = make_tower(q, max(a, 2))
    assert all_minors_nonzero(f, superregular_matrix(f, r, a))


def test_parity_weights_identity_when_two_lags():
    f = make_tower(3, 2)
    c = superregular_matrix(f, 2, 2)
    w = parity_weights(f, c)
    assert w.rows == c


def test_parity_weights_scales_third_lag():
    f = make_tower(4, 3)
    c = superregular_matrix(f, 2, 3)
    w = parity_weights(f, c)
    alpha = f.level_scalar(2)
    for i in range(2):
        assert w.rows[i][0] == c[i][0]
        assert w.rows[i][1] == c[i][1]
        assert w.rows[i][2] == f.mul(alpha, c[i][2])
        assert not in_subfield(f, w.rows[i][2], 1)
    # zero-perturbation case of the lagged-column independence claim
    assert all_minors_nonzero(f, w.rows)


def test_stacked_parity_check_structure():
    f = make_tower(4, 3)
    w = parity_weights(f, superregular_matrix(f, 2, 3))
    pc = stacked_parity_check(w)
    a, r = 3, 2
    assert isinstance(pc, tuple) and all(isinstance(row, tuple) for row in pc)
    assert len(pc) == a
    assert len(pc[0]) == a * (r + 1)
    for i in range(a):
        for j in range(a):
            block = pc[i][j * r:(j + 1) * r]
            if j <= i:
                assert block == tuple(w.rows[x][i - j] for x in range(r))
            else:
                assert block == (0,) * r
        for i2 in range(a):
            assert pc[i][a * r + i2] == (f.neg(1) if i2 == i else 0)
    assert echelon_rank(f, [list(row) for row in pc]) == 3


def test_stacked_parity_check_single_lag():
    f = make_tower(5, 2)
    w = parity_weights(f, superregular_matrix(f, 3, 1))
    pc = stacked_parity_check(w)
    assert len(pc) == 1
    assert len(pc[0]) == 4
    assert pc[0][3] == f.neg(1)


def test_in_span_empty():
    f = make_tower(3, 2)
    assert in_span(f, [0, 0, 0], [])
    assert not in_span(f, [0, 1, 0], [])


def test_rank_full_iff_leibniz_det_nonzero():
    """Pins matrix.Echelon, the decoder's elimination kernel, against the
    Leibniz determinant: n rows are independent iff the determinant is
    nonzero."""
    f = make_tower(4, 3)
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(16) for _ in range(n)] for _ in range(n)]
        assert (echelon_rank(f, m) == n) == (leibniz_det(f, m) != 0)


# GF(2), GF(5), GF(16) as an extension base, GF(81) and GF(625) as towers,
# GF(17^4) = GF(83521) above the table limit, on its pair arithmetic
RANK_FIELDS = [(2, 2), (5, 2), (16, 2), (3, 4), (5, 4), (17, 4)]


@pytest.mark.parametrize("q,a", RANK_FIELDS)
def test_rank_matches_rref_pivot_count(q, a):
    """Pins matrix.Echelon, the decoder's elimination kernel, against dense
    Gauss-Jordan: the rows it stores are as many as the pivots."""
    f = make_tower(q, a)
    rng = random.Random(q * 10 + a)
    for _ in range(60):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        m = [[rng.randrange(f.order) for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.3:
            m[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.3:
            j = rng.randrange(nc)
            for row in m:
                row[j] = 0
        if rng.random() < 0.3:
            # a dependent row, so full rank is not the only outcome
            c = rng.randrange(f.order)
            m[rng.randrange(nr)] = [f.mul(c, x) for x in m[rng.randrange(nr)]]
        assert echelon_rank(f, m) == len(rref(f, m)[2]), m


# GF(2), GF(16), GF(625), and GF(83521) on its pair arithmetic
SPAN_FIELDS = [(2, 2), (16, 2), (5, 4), (17, 4)]


def _combination(f, rng, vectors, width):
    """A random linear combination of the vectors, each of the given width."""
    out = [0] * width
    for v in vectors:
        c = rng.randrange(f.order)
        out = [f.add(x, f.mul(c, y)) for x, y in zip(out, v)]
    return out


@pytest.mark.parametrize("q,a", SPAN_FIELDS)
def test_in_span_matches_rank(q, a):
    """in_span reduces vec as one more column of the system; the rank by
    Echelon gives the span by its definition: v lies in span(V) iff adding
    it keeps the rank.
    Each V comes alone and with a combination of its own added, so
    dependent; the empty V is among them, and v is 0, a combination of V
    or random."""
    f = make_tower(q, a)
    rng = random.Random(q * 10 + a)
    verdicts = set()
    for i in range(40):
        n = rng.randrange(1, 6)
        vs = [[rng.randrange(f.order) for _ in range(n)] for _ in range(i % 4)]
        for span in (vs, vs + [_combination(f, rng, vs, n)]):
            for v in ([0] * n, _combination(f, rng, span, n),
                      [rng.randrange(f.order) for _ in range(n)]):
                got = in_span(f, v, span)
                assert got == (echelon_rank(f, span + [v]) == echelon_rank(f, span)), (v, span)
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q,a", SPAN_FIELDS)
def test_echelon_holds_the_dense_reduced_rows(q, a):
    """After each insert Echelon's rows, as sparse dicts by pivot, are the
    nonzero rows of the dense Gauss-Jordan form of every row inserted so
    far; a slot placed after a row's dict survives every subtraction and
    scaling, kept or not."""
    f = make_tower(q, a)
    rng = random.Random(q * 7 + a)
    for _ in range(30):
        nc, ech, dense, made = rng.randrange(1, 7), Echelon(f), [], []
        for slot in range(rng.randrange(1, 8)):
            if dense and rng.random() < 0.3:
                r = _combination(f, rng, dense, nc)
            else:
                r = [rng.randrange(f.order) if rng.random() < 0.6 else 0 for _ in range(nc)]
            dense.append(r)
            row = [{j: v for j, v in enumerate(r) if v}, ("slot", slot)]
            made.append(row)
            ech.insert(row)
            work, _, pivots = rref(f, dense)
            assert {pid: kept[0] for pid, kept in ech.rows.items()} == {
                p: {j: v for j, v in enumerate(work[i]) if v} for i, p in enumerate(pivots)}, dense
        assert [row[1:] for row in made] == [[("slot", i)] for i in range(len(made))]


# GF(3), GF(5), GF(16) and GF(7^2) as towers, GF(16) as an extension base,
# GF(625), and GF(83521) on its pair arithmetic
@pytest.mark.parametrize("q,a", [(3, 2), (4, 3), (5, 2), (7, 3), (16, 2), (5, 4), (17, 4)])
def test_is_superregular_matches_minor_oracle(q, a):
    """Shapes up to 4x5, and 2x12, the a x k shape of MDS-DE; nonzero
    entries from the base field, which keeps zero minors common at every
    size, or from the whole field, then a zero entry or a singular 2x2 or
    largest minor planted in some."""
    f = make_tower(q, a)
    rng = random.Random(q * 100 + a)
    verdicts = set()
    for i in range(60):
        nr, nc = (2, 12) if i % 8 == 0 else (rng.randrange(1, 5), rng.randrange(1, 6))
        top = q if i % 2 else f.order
        m = [[rng.randrange(1, top) for _ in range(nc)] for _ in range(nr)]
        z = min(nr, nc)
        if i % 5 == 4:
            m[rng.randrange(nr)][rng.randrange(nc)] = 0
        elif z > 1 and i % 3 == 0:
            # a row of a z x z submatrix made a combination of its other rows
            z = rng.choice([2, z])
            ii, jj = rng.sample(range(nr), z), rng.sample(range(nc), z)
            comb = _combination(f, rng, [[m[x][j] for j in jj] for x in ii[1:]], z)
            for j, v in zip(jj, comb):
                m[ii[0]][j] = v
        got = is_superregular(f, m)
        assert got == all_minors_nonzero(f, m), m
        verdicts.add(got)
    assert verdicts == {True, False}


def test_subfield_perturbation_two_lags_is_zero():
    f = make_tower(3, 2)
    d = subfield_perturbation(f, 2, 2, seed=9)
    assert d == ((0, 0), (0, 0))


def test_subfield_perturbation_membership():
    f = make_tower(4, 3)
    d = subfield_perturbation(f, 2, 3, seed=1)
    for row in d:
        assert row[0] == row[1] == 0
        assert row[2] < f.level_order(1)


def test_perturbed_weights_stay_superregular():
    f = make_tower(4, 3)
    w = parity_weights(f, superregular_matrix(f, 2, 3))
    for seed in range(200):
        d = subfield_perturbation(f, 2, 3, seed=seed)
        assert all_minors_nonzero(f, mat_add(f, w.rows, d)), seed


def test_span_criterion_matches_solvability():
    """Whenever a column avoids the span of the later erased columns, batch
    elimination on the erasure system pins that coordinate uniquely.  in_span
    runs on matrix.Echelon, the decoder's elimination kernel, so this also
    pins that kernel against dense Gauss-Jordan solvability."""
    f = make_tower(4, 3)
    w = parity_weights(f, superregular_matrix(f, 2, 3))
    pc = stacked_parity_check(w)
    lags, span = 3, 2
    cols = list(zip(*pc))
    n_len = len(cols)
    rng = random.Random(77)
    msg_len = lags * span
    for pattern in itertools.combinations(range(n_len), 3):
        msg = [rng.randrange(16) for _ in range(msg_len)]
        word = msg + list(mat_vec(f, [r[:msg_len] for r in pc], msg))
        rhs = [0] * lags
        for j in range(n_len):
            if j not in pattern:
                for i in range(lags):
                    rhs[i] = f.sub(rhs[i], f.mul(pc[i][j], word[j]))
        system = [[pc[i][j] for j in pattern] for i in range(lags)]
        pinned = pinned_coordinates(f, system, rhs)
        for slot, j in enumerate(pattern):
            if j < span and not in_span(f, cols[j], [cols[x] for x in pattern if x > j]):
                assert pinned.get(slot) == word[j]
