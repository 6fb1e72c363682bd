"""Tower field construction and arithmetic."""

import functools
import itertools
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import lrsc.gf
from lrsc.gf import (TowerField, is_prime_power, make_tower, smallest_prime_power_at_least,
                     tower_orders)

from conftest import (frobenius_fixed, in_subfield, level_quadratic, log_tables_reference,
                      naive_base_add, naive_base_mul, naive_base_neg, naive_tower_add,
                      naive_tower_mul, naive_tower_neg)

# (q, a) for every field shape the package builds: prime and extension base
# fields at level 1, and towers over both, in characteristic 2 and odd
SMALL_SHAPES = [(2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2), (16, 2), (2, 3),
                (3, 3), (4, 3), (5, 3), (7, 3), (9, 3), (2, 4), (3, 4)]      # order <= 81
LARGE_SHAPES = [(4, 4), (16, 3), (5, 4), (7, 4)]                            # 256, 625, 2401


def _check_against_oracle(f, pairs):
    for x, y in pairs:
        assert f.mul(x, y) == naive_tower_mul(f, x, y)
        assert f.add(x, y) == naive_tower_add(f, x, y)
        assert f.sub(x, y) == naive_tower_add(f, x, naive_tower_neg(f, y))
        assert f.neg(x) == naive_tower_neg(f, x)


def test_prime_power_detection():
    assert is_prime_power(3) == (3, 1)
    assert is_prime_power(4) == (2, 2)
    assert is_prime_power(81) == (3, 4)
    assert is_prime_power(6) is None
    assert is_prime_power(1) is None
    assert smallest_prime_power_at_least(6) == 7
    assert smallest_prime_power_at_least(2) == 2


def test_prime_power_search_stops_at_the_largest_base_order():
    assert smallest_prime_power_at_least(65521) == 65521
    assert smallest_prime_power_at_least(257) == 257
    assert smallest_prime_power_at_least(288) == 293      # skips 17^2 = 289
    for n in range(65522, 65537):                         # 2^16 has m = 16
        with pytest.raises(ValueError, match="desk scale"):
            smallest_prime_power_at_least(n)


def test_tower_orders_is_the_field_rule():
    assert tower_orders(5, 3) == [5, 5, 25, 625]
    assert tower_orders(65521, 1) == [65521, 65521]
    assert tower_orders(16, 3) == [16, 16, 256, 65536]
    assert tower_orders(2, 5) == [2, 2, 4, 16, 256, 65536]
    assert make_tower(4, 4).level_order(3) == tower_orders(4, 3)[3]
    for q, levels, match in [(10 ** 24 + 7, 1, "desk scale 2\\^16"), (6, 1, "not a prime power"),
                             (343, 1, "desk scale"), (3, 0, "at least one level"),
                             (2, 7, "below the top"), (257, 3, "below the top")]:
        with pytest.raises(ValueError, match=match):
            tower_orders(q, levels)


@pytest.mark.parametrize("build,args", [
    (tower_orders, (4.0, 2)), (tower_orders, (4, 2.0)), (tower_orders, (True, 1)),
    (TowerField, (3, True)), (smallest_prime_power_at_least, (2.5,)),
    (smallest_prime_power_at_least, (True,))])
def test_field_gate_takes_only_ints(build, args):
    # 4.0 gave the orders [4.0, 4.0, 16.0], 2.5 came back as a base order,
    # and True built GF(3) as a one-level tower
    with pytest.raises(ValueError, match="must be (an int|ints), got"):
        build(*args)


def test_tower_is_validated_once(monkeypatch):
    # the levels below the top reuse the entry point's orders and (p, m)
    calls = []
    real = lrsc.gf.is_prime_power
    monkeypatch.setattr(lrsc.gf, "is_prime_power", lambda n: calls.append(n) or real(n))
    assert TowerField(7, 3).order == 2401
    assert calls == [7]


@pytest.mark.parametrize("q", [3, 4, 7])
def test_pair_level_build_rejects_a_reducible_quadratic(monkeypatch, q):
    # over t^2 - 1 = (t - 1)(t + 1) the order test reaches an element whose
    # (s+1)-th power leaves the subfield; the build raises, not an assert,
    # so the check also runs under python -O
    monkeypatch.setattr(lrsc.gf, "_find_quadratic", lambda field: (0, field.neg(1)))
    with pytest.raises(RuntimeError, match="outside GF"):
        TowerField(q, 2)


def test_tower_shapes():
    t = make_tower(3, 2)
    assert (t.levels, t.order) == (1, 3)
    t = make_tower(4, 3)
    assert (t.levels, t.order) == (2, 16)
    assert [t.level_order(j) for j in range(3)] == [4, 4, 16]
    t = make_tower(3, 4)
    assert (t.levels, t.order) == (3, 81)
    assert [t.level_order(j) for j in range(4)] == [3, 3, 9, 81]


def test_tower_rejects_bad_orders():
    with pytest.raises(ValueError):
        make_tower(6, 2)
    with pytest.raises(ValueError):
        make_tower(3, 1)


def test_tower_above_desk_scale_fails_at_once():
    # the level below GF(5^16) has 390625 elements: searching it for the
    # top quadratic would run for minutes, so construction refuses it
    with pytest.raises(ValueError, match="desk scale"):
        make_tower(5, 6)
    with pytest.raises(ValueError, match="desk scale"):
        make_tower(2, 100)
    f = make_tower(5, 5)            # GF(5^8) over GF(625), the largest 5-tower
    assert f.order == 5 ** 8
    assert f.mul(f.inv(12345), 12345) == 1


def test_gf3_arithmetic():
    f = make_tower(3, 2)
    assert f.mul(2, 2) == 1
    assert f.add(2, 2) == 1
    assert f.neg(1) == 2
    assert f.inv(2) == 2
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_gf9_generator_square():
    # level-2 quadratic over GF(3) is t^2 + 1, so the adjoined root squares to -1
    f = make_tower(3, 3)
    assert level_quadratic(3, 2) == (0, 1)
    assert f.mul(3, 3) == 2


def test_gf16_generator_square_reduces_by_quadratic():
    # chosen quadratic is t^2 + w*t + 1 over GF(4), so beta^2 = w*beta + 1,
    # which is digits (1, 2) = 9 in the int encoding
    f = make_tower(4, 3)
    assert level_quadratic(4, 2) == (2, 1)
    assert f.mul(4, 4) == 9


@pytest.mark.parametrize("q,a", SMALL_SHAPES + LARGE_SHAPES)
def test_mul_against_naive_oracle_sampled(q, a):
    # every pair up to order 81, sampled above
    f = make_tower(q, a)
    rng = random.Random(2024)
    if f.order <= 81:
        pairs = itertools.product(range(f.order), repeat=2)
    else:
        pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(250)]
    _check_against_oracle(f, pairs)


@pytest.mark.parametrize("q,a", [(3, 3), (4, 3), (5, 4)])
def test_field_axioms_exhaustive_or_sampled(q, a):
    f = make_tower(q, a)
    rng = random.Random(1)
    triples = (
        itertools.product(range(f.order), repeat=3)
        if f.order <= 16
        else ((rng.randrange(f.order), rng.randrange(f.order), rng.randrange(f.order))
              for _ in range(400))
    )
    for x, y, z in triples:
        assert f.mul(x, y) == f.mul(y, x)
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)
        assert f.add(x, f.add(y, z)) == f.add(f.add(x, y), z)
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("q,a", SMALL_SHAPES + LARGE_SHAPES)
def test_inverses(q, a):
    f = make_tower(q, a)
    for x in range(1, f.order):
        assert naive_tower_mul(f, x, f.inv(x)) == 1
        assert naive_tower_add(f, x, f.neg(x)) == 0


def test_level_scalars():
    f = make_tower(4, 3)
    assert f.level_scalar(0) == 1
    assert f.level_scalar(1) == 1
    alpha = f.level_scalar(2)
    assert alpha == 4
    assert not in_subfield(f, alpha, 1)
    assert in_subfield(f, alpha, 2)

    f = make_tower(3, 4)
    a3 = f.level_scalar(3)
    coeffs = f.format_element(a3)[1:-1].split(",")
    assert any(c != "0" for c in coeffs[2:])
    assert not in_subfield(f, a3, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("a", [2, 3])
def test_subfield_agrees_with_frobenius_exhaustive(q, a):
    f = make_tower(q, a)
    for x in range(f.order):
        for j in range(1, f.levels + 1):
            assert in_subfield(f, x, j) == frobenius_fixed(f, x, j)


def test_subfield_agrees_with_frobenius_sampled_large():
    f = make_tower(3, 4)
    rng = random.Random(5)
    for x in list(range(f.order))[:81]:
        for j in range(1, f.levels + 1):
            assert in_subfield(f, x, j) == frobenius_fixed(f, x, j)
    f = make_tower(7, 4)
    for _ in range(200):
        x = rng.randrange(f.order)
        for j in range(1, f.levels + 1):
            assert in_subfield(f, x, j) == frobenius_fixed(f, x, j)


def test_subfield_closure_and_cyclic_structure():
    # each level's subset must be closed under multiplication and contain an
    # element of full multiplicative order; with the Frobenius fixed-point
    # test this pins the subset as the unique field of that size
    f = make_tower(3, 4)
    for j in range(1, f.levels + 1):
        size = f.level_order(j)
        for x in range(size):
            for y in range(x, size):
                assert f.mul(x, y) < size
        orders = set()
        for x in range(1, size):
            o = 1
            cur = x
            while cur != 1:
                cur = f.mul(cur, x)
                o += 1
            orders.add(o)
        assert max(orders) == size - 1


@pytest.mark.parametrize("q,a", [(2, 2), (5, 2), (4, 2), (8, 2), (9, 2), (16, 2), (4, 3),
                                 (9, 3), (5, 4)])
def test_level_one_arithmetic_matches_naive_base(q, a):
    # GF(q) is level 1 of every tower over it, and its elements embed unchanged
    f = make_tower(q, a)
    for x in range(q):
        assert f.neg(x) == naive_base_neg(f, x)
        for y in range(q):
            assert f.mul(x, y) == naive_base_mul(f, x, y)
            assert f.add(x, y) == naive_base_add(f, x, y)


def test_determinism():
    f1 = make_tower(4, 3)
    f2 = make_tower(4, 3)
    assert (f1._lin, f1._const) == (f2._lin, f2._const)
    assert all(f1.mul(x, y) == f2.mul(x, y) for x in range(16) for y in range(16))
    g1 = make_tower(3, 4)
    g2 = make_tower(3, 4)
    assert (g1._lin, g1._const) == (g2._lin, g2._const)
    assert g1.level_scalar(3) == g2.level_scalar(3)


def test_element_text_format():
    f = make_tower(3, 4)
    assert f.format_element(11) == "[2,0,1,0]"
    assert f.parse_element("[2,0,1,0]") == 11
    for x in (0, 1, 5, 80):
        assert f.parse_element(f.format_element(x)) == x
    with pytest.raises(ValueError):
        f.parse_element("[3,0,1,0]")
    with pytest.raises(ValueError):
        f.parse_element("[1,0]")
    with pytest.raises(ValueError):
        f.parse_element("2,0,1,0")

    g = make_tower(4, 3)   # GF(p) coefficients, not GF(q): dim 2 over GF(4) -> 4 bits
    assert g.format_element(9) == "[1,0,0,1]"
    assert g.parse_element(g.format_element(9)) == 9

    h = make_tower(11, 2)
    assert h.parse_element("[ 4 ]") == h.parse_element("[4]") == 4
    # leading zeros are no limit, and a huge coefficient is out of range
    # without being echoed or handed whole to int()
    assert h.parse_element("[01]") == h.parse_element("[" + "0" * 5000 + "1]") == 1
    with pytest.raises(ValueError, match=r"out of range for GF\(11\)") as exc:
        h.parse_element("[" + "9" * 5000 + "]")
    assert len(str(exc.value)) < 60
    # a malformed element is echoed cut short, not whole
    for huge in ["[" + "9" * 5000 + "x]", "x" * 5000]:
        with pytest.raises(ValueError, match="malformed element") as exc:
            h.parse_element(huge)
        assert len(str(exc.value)) < 100
    # coefficients are ASCII decimal digits and nothing else
    for bad in ["[1_0]", "[+3]", "[\u0663]", "[1,]", "[]", "[-1]", "[ ]", "[[3]]", "[0x3]"]:
        with pytest.raises(ValueError, match="malformed element"):
            h.parse_element(bad)


def test_base_field_irreducibles():
    # smallest by constant-first lexicographic order on the coefficients
    assert lrsc.gf._monic_irreducible(2, 2) == (1, 1, 1)
    assert lrsc.gf._monic_irreducible(2, 3) == (1, 0, 1, 1)       # t^3 + t^2 + 1
    assert lrsc.gf._monic_irreducible(3, 2) == (1, 0, 1)          # t^2 + 1
    assert lrsc.gf._monic_irreducible(2, 4) == (1, 0, 0, 1, 1)    # t^4 + t^3 + 1
    assert lrsc.gf._monic_irreducible(7, 1) == (0, 1)
    # every level reduces its GF(q) digits by it: t = p, and t^m is minus
    # the polynomial's lower coefficients, read as digits
    for q, levels in [(4, 1), (8, 1), (9, 1), (16, 1), (7, 1), (4, 3)]:
        f = TowerField(q, levels)
        tail = lrsc.gf._monic_irreducible(f.p, f.m)[:-1]
        want = sum((-c % f.p) * f.p ** i for i, c in enumerate(tail))
        assert f.pow(f.p % q, f.m) == want, (q, levels)


def test_check_accepts_exactly_the_field_elements():
    f = make_tower(4, 3)
    f.check([], 0)
    f.check(range(16), 16)
    f.check((0, 15, 9), 3)
    for bad in [16, -1, "1", 1.0, None, True, False]:
        with pytest.raises(ValueError, match="not an element of the field of order 16"):
            f.check((0, bad, 1), 3)
        with pytest.raises(ValueError, match="not an element"):
            f.format_element(bad)
    for symbols, count in [((0, 1), 3), ((0, 1, 2, 3), 3), ((), 1)]:
        with pytest.raises(ValueError, match=f"expected {count} symbols, got {len(symbols)}"):
            f.check(symbols, count)


def test_large_tower_without_log_tables():
    # above the table limit the pair arithmetic over the level below must
    # still be exact
    f = TowerField(5, 4)   # order 5^8 = 390625
    assert f.order == 390625
    assert f._log is None
    rng = random.Random(14)
    pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(25)]
    _check_against_oracle(f, pairs + [(0, 7), (7, 0), (0, 0)])
    for x, _ in pairs:
        if x:
            assert naive_tower_mul(f, x, f.inv(x)) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_hypothesis_ring_axioms_gf81(x, y, z):
    f = make_tower(3, 4)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.sub(f.add(x, y), y) == x


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2400), st.integers(0, 4))
def test_hypothesis_pow_matches_repeated_mul(x, e):
    f = make_tower(7, 4)
    acc = 1
    for _ in range(e):
        acc = f.mul(acc, x)
    assert f.pow(x, e) == acc


def _field_crc():
    """CRC32 over add, sub, mul, neg, inv and format_element of every tower
    ``tower_orders`` accepts with top order at most 3000 (every element and
    pair up to 64 elements, seeded samples above), then GF(5^8) products."""
    crc = fields = 0
    for q in range(2, 3001):
        for levels in itertools.count(1):
            try:
                if tower_orders(q, levels)[-1] > 3000:
                    break
            except ValueError:
                break
            f = TowerField(q, levels)
            fields += 1
            rng = random.Random(q * 100 + levels)
            if f.order <= 64:
                xs = list(range(f.order))
                pairs = list(itertools.product(xs, repeat=2))
            else:
                xs = [rng.randrange(f.order) for _ in range(200)]
                pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(200)]
            lines = [f"{x} {y} {f.add(x, y)} {f.sub(x, y)} {f.mul(x, y)}" for x, y in pairs]
            lines += [f"{x} {f.neg(x)} {f.inv(x) if x else '-'} {f.format_element(x)}" for x in xs]
            crc = zlib.crc32("".join(line + "\n" for line in lines).encode(), crc)
    f = TowerField(5, 4)
    rng = random.Random(58)
    for _ in range(300):
        x, y = rng.randrange(f.order), rng.randrange(f.order)
        crc = zlib.crc32(f"{x} {y} {f.mul(x, y)}\n".encode(), crc)
    return fields, crc


def test_field_arithmetic_is_bit_exact_and_stable():
    # README promises bit-exact, stable fields: any change to the
    # irreducibles, the level quadratics or the int encoding moves this.
    # Products do not depend on which generator the tables use, so the
    # tables themselves are pinned by test_log_tables_match_the_reference.
    assert _field_crc() == (476, 0x8695DEB7)


def _table_shapes():
    """Every table-backed (q, levels) with top order at most 2^12, and each
    level of GF(2401), GF(6561) and GF(65536) built as (16, 3)."""
    shapes = {(q, j) for q, top in ((7, 3), (3, 4), (16, 3)) for j in range(1, top + 1)}
    for q in range(2, (1 << 12) + 1):
        for levels in itertools.count(1):
            try:
                if tower_orders(q, levels)[-1] > 1 << 12:
                    break
            except ValueError:
                break
            shapes.add((q, levels))
    return sorted(shapes)


def _prime_mul(p):
    return lambda x, y: x * y % p


def test_log_tables_match_the_reference():
    # the order-tested generator, level 1's one power walk by its own
    # product and the higher levels' N^a g^b build give the tables of the
    # walk-until-1 search: level 1 by GF(q)'s own product, each level above
    # by the pair product over the (already pinned) level below
    for q, levels in _table_shapes():
        f = TowerField(q, levels)
        if levels > 1:
            mul = f._pair_mul
        elif f.m > 1:
            mul = functools.partial(naive_base_mul, f)
        else:
            mul = _prime_mul(f.p)
        want = log_tables_reference(f.order, f.p, mul)
        assert (f._exp, f._log, f._zech, f._half) == want, (q, levels)


# -- the decoder's kernels against the scalar add/sub/mul path --

# GF(4), GF(16), GF(256) in characteristic 2; GF(9), GF(625), GF(2401) odd;
# GF(17^4) = GF(83521) above the table limit, on its pair arithmetic
KERNEL_FIELDS = [(2, 2), (4, 2), (16, 2), (3, 2), (5, 3), (7, 3), (17, 3)]


def _edge_elements(f):
    """Elements whose logs sit at the table bounds: near 0, near half =
    log(-1) and near n = order-1, so that log(-f) = log f + half runs past n."""
    if f._log is None:
        return [1, f.neg(1), f.order - 1]
    n, half = f.order - 1, f._half
    return sorted({f._exp[i % n] for i in (0, 1, half - 1, half, half + 1, n - 2, n - 1)})


def _row_sub_reference(f, row, fac, pivot):
    coeffs = dict(row[0])
    for cid, cv in pivot[0].items():
        coeffs[cid] = f.sub(coeffs.get(cid, 0), f.mul(fac, cv))
    return [{cid: v for cid, v in coeffs.items() if v}]


@pytest.mark.parametrize("q,levels", KERNEL_FIELDS,
                         ids=[f"GF{q ** 2 ** (levels - 1)}" for q, levels in KERNEL_FIELDS])
def test_kernels_match_the_scalar_path(q, levels):
    f = TowerField(q, levels)
    assert (f._log is None) == (f.order > 1 << 16)
    rng = random.Random(q * 10 + levels)
    edge = _edge_elements(f)

    def elem(nonzero=False):
        x = rng.choice(edge) if rng.random() < 0.5 else rng.randrange(f.order)
        return elem(nonzero) if nonzero and not x else x

    def row(width):
        return [{i: elem(True) for i in rng.sample(range(12), rng.randrange(width))}]

    def value():
        return rng.choice((None, 0)) if rng.random() < 0.25 else elem()

    for _ in range(300):
        # sums over shared values, None and 0 among them, an index maybe
        # repeated, with nonzero coefficients as prep gives them
        xs, sums, want = [value() for _ in range(10)], [], []
        for _ in range(rng.randrange(4)):
            idx = [rng.randrange(10) for _ in range(rng.randrange(8))]
            cs = [elem(True) for _ in idx]
            acc = 0
            for i, c in zip(idx, cs):
                acc = f.add(acc, f.mul(c, xs[i] or 0))
            sums.append((tuple(idx), tuple(map(f.prep, cs))))
            want.append(acc)
        assert f.dots(sums, xs) == want, (sums, xs)
        # a sequence of row operations, each reading the values the last left
        xs = [value() or 0 for _ in range(6)]
        ops, want = [], xs[:]
        for _ in range(rng.randrange(8)):
            dst, g, src, own = rng.randrange(6), elem(True), rng.randrange(6), rng.random() < 0.5
            v = f.mul(g, want[src])
            want[dst] = f.add(want[dst], v) if own else v
            ops.append((dst, f.prep(g), src, own))
        f.run_ops(ops, xs)
        assert xs == want, ops
        r, pivot, fac = row(9), row(9), elem(True)
        want = _row_sub_reference(f, r, fac, pivot)
        f.row_sub(r, fac, pivot)
        assert r == want, fac
        # in place, and only the dict: the rest of a row is the caller's
        s, slot = elem(True), object()
        want = [{cid: f.mul(s, v) for cid, v in pivot[0].items()}, slot]
        pivot.append(slot)
        assert f.row_scale(pivot, s) is None
        assert pivot == want and pivot[1] is slot, s


@pytest.mark.parametrize("q,levels", KERNEL_FIELDS,
                         ids=[f"GF{q ** 2 ** (levels - 1)}" for q, levels in KERNEL_FIELDS])
def test_kernels_cancel_to_zero(q, levels):
    f = TowerField(q, levels)
    for c in _edge_elements(f):
        for x in _edge_elements(f):
            # c*x + c*(-x) = 0, then terms after the cancellation, None and
            # 0 adding nothing
            pc, px = f.prep(c), f.prep(x)
            assert f.dots([((0, 1), (pc, pc)), ((0, 1, 2, 3, 4), (pc, pc, pc, pc, px))],
                          [x, f.neg(x), None, 0, c]) == [0, f.mul(c, x)]
            # (-c)*x cancels c*x in place; dst equal to src; a zero source
            # writes 0, or with own leaves dst as it was
            xs = [f.mul(c, x), x, c]
            f.run_ops([(0, f.prep(f.neg(c)), 1, True), (1, pc, 1, True),
                       (2, px, 0, False), (1, pc, 0, True)], xs)
            assert xs == [0, f.add(x, f.mul(c, x)), 0], (c, x)
            # row - fac * (row / fac) is empty
            row = [{3: c, 5: x, 8: f.mul(c, x)}]
            pivot = [dict(row[0])]
            f.row_scale(pivot, f.inv(c))
            f.row_sub(row, c, pivot)
            assert row == [{}], (c, x)
