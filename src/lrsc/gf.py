"""Exact arithmetic in GF(q) and in a tower of quadratic extensions above it.

The tower is GF(q) at level 1, GF(q^2) at level 2, and so on: each level
adjoins a root of a monic quadratic that is irreducible over the level
below, so level j has order q^(2^(j-1)).

Elements are plain ints.  An int is read as a coefficient vector in the
tower basis, written in base q: digit i is the GF(q) coordinate of basis
element i, and each GF(q) digit is itself a base-p coefficient vector when
q = p^m.  This encoding gives three properties the rest of the package
leans on:

* level-j subfield membership is just ``x < level_order(j)``,
* GF(q) matrix entries embed into the top field unchanged,
* addition is digit-wise and never carries.

Every field of order at most 2^16 computes with the same few reads of
its exp, log and Zech tables, whatever p, m and level.  Each level builds
them from the powers of its smallest generator g.  Level 1, GF(p^m),
finds g by the order test over its own product, x*y mod p for a prime
and the schoolbook product of the digit vectors reduced by the base
irreducible for m > 1, and walks g's powers once by that product.  A
level of order s^2 reads N = g^(s+1), which lies in the level below, as
the norm of g = x0 + x1 t, x0^2 - lin*x0*x1 + const*x1^2, and its order
test reads the log of N there.  Its s+1 quadratic products g^1..g^(s+1)
must reach N, and every other power g^(a(s+1)+b) = N^a g^b is read from
the tables below.  A larger field uses the quadratic product over the
level below directly.
The codec's inner loops, a row update or scaling, and the parity sums
and row operations that the encoder and every replayed plan run, are one
call each (``row_sub``, ``row_scale``, ``dots``, ``run_ops``) over the
same tables, or over the pair arithmetic above 2^16.

Construction is deterministic: the base irreducible and every level
quadratic are the lexicographically smallest valid choices, comparing
coefficient vectors constant term first.  Two towers built from equal
(q, a) therefore agree bit for bit.

Ints carry no field tag; keeping operands together with the tower that
made them is the caller's job, as with any table-driven GF code.
"""

from __future__ import annotations

import functools
import itertools
import math

_LOG_TABLE_MAX = 1 << 16
_BASE_TABLE_MAX = 256


def is_prime_power(n: int):
    """Return (p, m) with n = p**m and p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n and n % p:
        p += 1
    if p * p > n:
        return (n, 1)
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    return (p, m) if n == 1 else None


def _tower_shape(q: int, levels: int):
    """(p, m, tower_orders(q, levels)) with q = p^m, validating the tower once."""
    if q.__class__ is not int or levels.__class__ is not int:
        raise ValueError(f"q and levels must be ints, got q={q!r}, levels={levels!r}")
    if q > _LOG_TABLE_MAX:
        raise ValueError(f"base field order {q} exceeds the supported desk scale 2^16")
    pm = is_prime_power(q)
    if pm is None:
        raise ValueError(f"field order {q} is not a prime power")
    if pm[1] > 1 and q > _BASE_TABLE_MAX:
        raise ValueError(f"base field GF({q}) exceeds the supported desk scale")
    if levels < 1:
        raise ValueError("a tower needs at least one level")
    orders = [q, q]        # level j has order q^(2^(j-1))
    while len(orders) <= levels:
        if orders[-1] > _LOG_TABLE_MAX:
            raise ValueError(f"tower level GF({orders[-1]}) below the top "
                             "exceeds the supported desk scale")
        orders.append(orders[-1] ** 2)
    return (*pm, orders)


def tower_orders(q: int, levels: int) -> list:
    """Orders of levels 0..levels of the tower over GF(q), or ValueError if
    no such tower can be built.  This is the one rule for which fields exist.

    The base order is at most 2^16, checked before any prime-power search;
    it is a prime power, and at most 256 unless prime.  Each level below
    the top is at most 2^16, which bounds the search for the top quadratic.
    """
    return _tower_shape(q, levels)[2]


def smallest_prime_power_at_least(n: int) -> int:
    """Smallest base order at least n that ``tower_orders`` accepts.  For n
    above the largest, 65521, this raises the rule's ValueError."""
    if n.__class__ is not int:
        raise ValueError(f"n must be an int, got n={n!r}")
    for c in itertools.count(max(2, n)):
        try:
            return tower_orders(c, 1)[0]
        except ValueError:
            if c >= _LOG_TABLE_MAX:
                raise


def _digits(x, p, count):
    """The count lowest base-p digits of x, least significant first."""
    out = []
    for _ in range(count):
        x, d = divmod(x, p)
        out.append(d)
    return out


def _undigits(ds, p):
    acc = 0
    for d in reversed(ds):
        acc = acc * p + d
    return acc


# -- polynomials over GF(p), sequences of coefficients, constant term first --

def _poly_mod(num, den, p):
    """Remainder of num modulo monic den, as deg(den) coefficients mod p."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return [c % p for c in num[:dd]]


def _is_irreducible(poly, p):
    """Exhaustive check: no monic factor of degree 1 .. deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = tail + (1,)
            if not any(_poly_mod(poly, div, p)):
                return False
    return True


def _monic_irreducible(p: int, m: int):
    """Lexicographically smallest monic irreducible of degree m over GF(p)."""
    if m == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=m):
        cand = tail + (1,)
        if tail[0] and _is_irreducible(cand, p):      # a 0 constant term has the root 0
            return cand
    raise RuntimeError(f"no irreducible of degree {m} over GF({p})")


def _base_mul(p, m, poly, x, y):
    """x*y in GF(p^m) = GF(p)[t]/poly: the schoolbook product of the two
    base-p digit vectors, reduced by poly."""
    xd, yd = _digits(x, p, m), _digits(y, p, m)
    prod = [0] * (2 * m - 1)
    for i, a in enumerate(xd):
        if a:
            for j, b in enumerate(yd):
                prod[i + j] += a * b
    return _undigits(_poly_mod(prod, poly, p), p)


def _order_exponents(n):
    """n // f for each prime f dividing n >= 1: the exponents of the order test."""
    out, m, f = [], n, 2
    while f * f <= m:
        if m % f == 0:
            out.append(n // f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(n // m)
    return out


def _power(mul, x, e):
    """x^e by square-and-multiply over mul."""
    if e < 0:
        raise ValueError("negative exponent")
    acc = 1
    while e > 1:
        if e & 1:
            acc = mul(acc, x)
        x = mul(x, x)
        e >>= 1
    return mul(acc, x) if e else acc


def _generator(order, mul):
    """The smallest element of order n = order - 1, found by the order test:
    g^(n/f) != 1 for each prime f dividing n, each power by ``_power`` over
    ``mul``.  This finds level 1's generator for every GF(p^m): for m > 1
    the elements below p lie in GF(p), of order dividing p-1, and fail the
    test at a prime f dividing (q-1)/(p-1) > 1."""
    exps = _order_exponents(order - 1)
    for g in range(min(2, order - 1), order):     # 1 has order 1, unless order is 2
        for e in exps:
            if _power(mul, g, e) == 1:
                break
        else:
            return g
    raise RuntimeError(f"no multiplicative generator of GF({order})")


def _log_tables(powers, p):
    """exp, log and Zech tables of GF(n + 1), of characteristic p, from the
    list of powers g^0..g^(n-1) of a generator g, and half = log(-1).

    ``log`` is filled from that list in one pass.  ``exp`` holds the powers
    twice, then n zeros; ``zech[d]`` is log(1 + g^d), or 2n, which reads
    that zero tail, where 1 + g^d = 0: at d = half, as -1 = g^half is
    g^(n/2) in odd characteristic and 1 in characteristic 2.  Adding 1
    changes only the lowest base-p digit of an element's int.  Stored
    twice, ``zech`` wraps any index in (-n, 2n)."""
    n = len(powers)
    log = [0] * (n + 1)
    for i, x in enumerate(powers):
        log[x] = i
    top = p - 1                         # a lowest digit that wraps to 0
    zech = [log[x + 1 if x % p < top else x - top] for x in powers]
    half = n // 2 if p > 2 else 0
    zech[half] = 2 * n
    return powers * 2 + [0] * n, log, zech * 2, half


def _find_quadratic(field):
    """Smallest (const, lin) with t^2 + lin*t + const irreducible over field."""
    add, mul, size = field.add, field.mul, field.order
    for const in range(1, size):
        minus_const = field.neg(const)
        for lin in range(size):
            if all(mul(x, add(x, lin)) != minus_const for x in range(size)):
                return (lin, const)
    raise RuntimeError(f"no irreducible quadratic over GF({size})")


class TowerField:
    """Quadratic-extension tower of the given number of levels over GF(q).

    Level 1 is GF(q) = GF(p^m) itself, reduced by ``_monic_irreducible(p,
    m)``.  ``level_order(j)`` gives the order of the level-j subfield
    (levels 0 and 1 both mean GF(q)); ``order`` is the top level's.  All
    arithmetic acts on ints below ``order``; lower-level elements are
    already embedded.  Level j >= 2 adjoins a root of the quadratic
    x^2 + ``_lin`` x + ``_const`` over level j-1.

    A tower of L >= 2 levels holds the tower of L - 1 levels.  Up to order
    2^16 every operation reads this level's tables; above that ``_log`` is
    None and the operations are the pair arithmetic over the level below.
    """

    def __init__(self, q: int, levels: int):
        p, m, sizes = _tower_shape(q, levels)
        self._build(q, levels, p, m, sizes)

    def _build(self, q, levels, p, m, sizes):
        """Level ``levels`` of the tower that ``_tower_shape`` validated: every
        level below is built the same way and shares (p, m) and the orders."""
        self._sizes = sizes
        self.levels = levels
        self.q = q
        self.order = order = sizes[levels]
        self.p, self.m = p, m
        self.dim_p = m << (levels - 1)   # over GF(p)
        if levels == 1:
            mul = ((lambda x, y: x * y % p) if m == 1
                   else functools.partial(_base_mul, p, m, _monic_irreducible(p, m)))
            g = _generator(q, mul)
            x, powers = 1, [1]
            for _ in range(q - 2):
                x = mul(x, g)
                powers.append(x)
        else:
            below = TowerField.__new__(TowerField)
            below._build(q, levels - 1, p, m, sizes)
            self._s = below.order
            self._badd, self._bsub, self._bneg, self._bmul = below.add, below.sub, below.neg, below.mul
            self._lin, self._const = _find_quadratic(below)
            if order > _LOG_TABLE_MAX:
                self._log = None
                self.add, self.sub, self.neg = self._pair_add, self._pair_sub, self._pair_neg
                self.mul, self.pow = self._pair_mul, functools.partial(_power, self._pair_mul)
                self.row_sub, self.row_scale = self._pair_row_sub, self._pair_row_scale
                self.prep, self.dots, self.run_ops = self._pair_prep, self._pair_dots, self._pair_run_ops
                return
            powers = self._pair_powers(*self._pair_generator(below), below)
        self._exp, self._log, self._zech, self._half = _log_tables(powers, p)

    # -- arithmetic from the tables --

    def add(self, x, y):
        if x and y:
            lx = self._log[x]
            return self._exp[lx + self._zech[self._log[y] - lx]]
        return x or y

    def sub(self, x, y):
        if x and y:
            lx = self._log[x]
            return self._exp[lx + self._zech[self._log[y] + self._half - lx]]
        return x or self.neg(y)

    def neg(self, x):
        return x and self._exp[self._log[x] + self._half]

    def mul(self, x, y):
        return x and y and self._exp[self._log[x] + self._log[y]]

    def pow(self, x, e):
        if e < 0:
            raise ValueError("negative exponent")
        if x == 0:
            return 0 if e else 1
        return self._exp[self._log[x] * e % (self.order - 1)]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(x, self.order - 2)

    # -- the codec's inner loops, one call per parity or row: a product's
    # log, a sum of two logs, is below 2n-1, and its difference from a log
    # below n lies in (-n, 2n-1), where zech reads

    def prep(self, c):
        """A nonzero coefficient in the form ``dots`` and ``run_ops`` take:
        its log here, itself above 2^16."""
        return self._log[c]

    def dots(self, sums, xs):
        """For each (indices, coefficients) in sums, the sum of c*xs[i] over
        its pairs, the coefficients as ``prep`` gives them: a list, one
        value per sum.  An x of None adds nothing, as 0 does."""
        exp, log, zech = self._exp, self._log, self._zech
        out = []
        for idx, lcs in sums:
            acc = 0
            for i, lc in zip(idx, lcs):
                x = xs[i]
                if x:
                    lt = lc + log[x]
                    if acc:
                        la = log[acc]
                        acc = exp[la + zech[lt - la]]
                    else:
                        acc = exp[lt]
            out.append(acc)
        return out

    def run_ops(self, ops, xs):
        """Row operations on the values xs, in place: each (dst, g, src,
        own) sets xs[dst] to g*xs[src], plus xs[dst] where own is true, g
        as ``prep`` gives it."""
        exp, log, zech = self._exp, self._log, self._zech
        for dst, lg, src, own in ops:
            y = xs[src]
            if y:
                lt = lg + log[y]
                x = xs[dst] if own else 0
                if x:
                    lx = log[x]
                    xs[dst] = exp[lx + zech[lt - lx]]
                else:
                    xs[dst] = exp[lt]
            elif not own:
                xs[dst] = 0

    def row_sub(self, row, f, pivot):
        """row[0] -= f*pivot[0] in place, for a nonzero f and coeff dicts that
        store no zero; a coefficient that cancels is dropped."""
        exp, log, zech = self._exp, self._log, self._zech
        lf = (log[f] + self._half) % (self.order - 1)      # log(-f)
        coeffs = row[0]
        for cid, cv in pivot[0].items():
            lt = lf + log[cv]
            x = coeffs.get(cid)
            if x:
                lx = log[x]
                x = exp[lx + zech[lt - lx]]
                if x:
                    coeffs[cid] = x
                else:
                    del coeffs[cid]
            else:
                coeffs[cid] = exp[lt]

    def row_scale(self, row, s):
        """row[0] *= s in place, for a nonzero s and a coeff dict that stores
        no zero."""
        exp, log = self._exp, self._log
        ls = log[s]
        row[0] = {cid: exp[ls + log[cv]] for cid, cv in row[0].items()}

    # -- arithmetic as pairs (x0, x1) = x0 + x1*t over the level below --

    def _pair_add(self, x, y):
        s = self._s
        return self._badd(x % s, y % s) + self._badd(x // s, y // s) * s

    def _pair_sub(self, x, y):
        return self._pair_add(x, self._pair_neg(y))

    def _pair_neg(self, x):
        s = self._s
        return self._bneg(x % s) + self._bneg(x // s) * s

    def _pair_mul(self, x, y):
        """(x0 + x1 t)(y0 + y1 t) with t^2 = -lin*t - const."""
        s, add, sub, mul = self._s, self._badd, self._bsub, self._bmul
        x1, x0 = divmod(x, s)
        y1, y0 = divmod(y, s)
        p11 = mul(x1, y1)
        lo = sub(mul(x0, y0), mul(self._const, p11))
        hi = sub(add(mul(x0, y1), mul(x1, y0)), mul(self._lin, p11))
        return lo + hi * s

    def _pair_prep(self, c):
        return c

    def _pair_dots(self, sums, xs):
        add, mul, out = self._pair_add, self._pair_mul, []
        for idx, cs in sums:
            acc = 0
            for i, c in zip(idx, cs):
                x = xs[i]
                if x:
                    acc = add(acc, mul(c, x))
            out.append(acc)
        return out

    def _pair_run_ops(self, ops, xs):
        for dst, g, src, own in ops:
            v = self._pair_mul(g, xs[src])
            xs[dst] = self._pair_add(xs[dst], v) if own else v

    def _pair_row_sub(self, row, f, pivot):
        sub, mul, coeffs = self._pair_sub, self._pair_mul, row[0]
        for cid, cv in pivot[0].items():
            x = sub(coeffs.get(cid, 0), mul(f, cv))
            if x:
                coeffs[cid] = x
            else:
                del coeffs[cid]

    def _pair_row_scale(self, row, s):
        mul = self._pair_mul
        row[0] = {cid: mul(s, cv) for cid, cv in row[0].items()}

    def _pair_generator(self, below):
        """The smallest generator g of this level, of order n = s^2 - 1 over
        the level below of order s, by the order test read from the level
        below, and N = g^(s+1).  Every x below s lies there, so the search
        starts at s.  N is the norm of g = x0 + x1 t,
        x0^2 - lin*x0*x1 + const*x1^2, in the level below, and for a prime
        f dividing s-1, g^(n/f) = N^((s-1)/f): those tests all pass iff
        log N is prime to s-1.  For a prime f dividing s+1 alone,
        g^(n/f) = h^(s-1) with h = g^((s+1)/f), which is 1 iff h lies in
        the level below."""
        s, mul = self._s, self._pair_mul
        badd, bsub, bmul, blog = self._badd, self._bsub, self._bmul, below._log
        exps = [e for e in _order_exponents(s + 1) if (s - 1) % ((s + 1) // e)]
        for g in range(s, self.order):
            x1, x0 = divmod(g, s)
            big_n = badd(bmul(x0, bsub(x0, bmul(self._lin, x1))), bmul(self._const, bmul(x1, x1)))
            if math.gcd(blog[big_n], s - 1) == 1 and all(_power(mul, g, e) >= s for e in exps):
                return g, big_n
        raise RuntimeError(f"no multiplicative generator of GF({self.order})")

    def _pair_powers(self, g, big_n, below):
        """g^0..g^(n-1) for a generator g of this level, n = s^2 - 1 over the
        level below of order s, and N = g^(s+1), which lies in the level
        below and generates its group, so g^(a(s+1)+b) = N^a g^b for
        a < s-1 and b <= s.  The products g^1..g^(s+1) must reach N, or the
        build raises.  N^a scales both halves of g^b = x0 + x1 t, so each
        power is two reads of the tables below, from the logs of the halves
        of g^0..g^s."""
        s = self._s
        gb = [1]
        for _ in range(s + 1):
            gb.append(self._pair_mul(gb[-1], g))
        if gb[-1] != big_n:
            raise RuntimeError(f"g^{s + 1} = {gb[-1]} is outside GF({s}) or not the norm "
                               f"{big_n}: a broken product or quadratic")
        gb.pop()
        blog, bexp, nb = below._log, below._exp, s - 1
        zero = 2 * nb                       # a log that reads the zero tail of exp
        halves = [(blog[x % s] if x % s else zero, blog[x // s] if x // s else zero) for x in gb]
        step, powers = blog[big_n], []
        for a in range(nb):
            la = a * step % nb
            powers += [bexp[la + l0] + bexp[la + l1] * s for l0, l1 in halves]
        return powers

    # -- structure queries --

    def level_order(self, j):
        if not 0 <= j <= self.levels:
            raise ValueError(f"level {j} out of range [0:{self.levels}]")
        return self._sizes[j]

    def level_scalar(self, j):
        """1 for the first two levels; above that, the root adjoined at level j.

        The returned element lies in level j but outside level j-1, which is
        what the staggered parity constructions need: as the basis element
        above level j-1, its int is the order of level j-1.
        """
        if not 0 <= j <= self.levels:
            raise ValueError(f"level {j} out of range [0:{self.levels}]")
        return 1 if j <= 1 else self.level_order(j - 1)

    def check(self, symbols, count):
        """Raise ValueError unless symbols holds exactly count elements of
        this field, each an int, not a bool, in [0, order)."""
        if len(symbols) != count:
            raise ValueError(f"expected {count} symbols, got {len(symbols)}")
        order = self.order
        for s in symbols:
            # a plain int takes one class test; bool subclasses int but is no element
            if (s.__class__ is not int and (s.__class__ is bool or not isinstance(s, int))
                    or not 0 <= s < order):
                raise ValueError(f"symbol {s!r} is not an element of the field of order {order}")

    # -- textual element format: GF(p) coefficient vector, low index first --

    def format_element(self, x):
        self.check((x,), 1)
        return "[" + ",".join(map(str, _digits(x, self.p, self.dim_p))) + "]"

    def parse_element(self, text):
        """The element written as ``[c0,c1,...]``: dim_p ASCII decimal
        coefficients below p, whitespace allowed around each."""
        s = text.strip()
        coeffs = [c.strip() for c in s[1:-1].split(",")]
        if not (s.startswith("[") and s.endswith("]")
                and all(c.isascii() and c.isdigit() for c in coeffs)):
            shown = text[:24] + "..." * (len(text) > 24)
            raise ValueError(f"malformed element {shown!r}: expected [c0,c1,...] in decimal")
        if len(coeffs) != self.dim_p:
            raise ValueError(f"expected {self.dim_p} coefficients, got {len(coeffs)}")
        p = self.p
        # compare lengths before int(), which refuses more than 4300 digits
        coeffs = [c.lstrip("0") or "0" for c in coeffs]
        for c in coeffs:
            if len(c) > len(str(p - 1)) or int(c) >= p:
                raise ValueError(f"coefficient {c[:8]}{'...' * (len(c) > 8)} out of range for GF({p})")
        return _undigits([int(c) for c in coeffs], p)


def make_tower(q: int, a: int) -> TowerField:
    """Tower sized for an a-erasure code: a-1 levels over GF(q)."""
    if a < 2:
        raise ValueError("a must be at least 2")
    return TowerField(q, a - 1)
