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
its exp, log and Zech tables, whatever p, m and level.  Level 1 builds
them from GF(q)'s polynomial product and each higher level from the
quadratic product over the level below; a larger field uses that directly.

Construction is deterministic: the base irreducible and every level
quadratic are the lexicographically smallest valid choices, comparing
coefficient vectors constant term first.  Two towers built from equal
(q, a) therefore agree bit for bit.

Ints carry no field tag; keeping operands together with the tower that
made them is the caller's job, as with any table-driven GF code.
"""

from __future__ import annotations

import itertools

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


def check_base_order(q: int) -> int:
    """q, or ValueError above the largest base order: call before any prime-power search."""
    if q > _LOG_TABLE_MAX:
        raise ValueError(f"base field order {q} exceeds the supported desk scale 2^16")
    return q


def smallest_prime_power_at_least(n: int) -> int:
    c = max(2, n)
    while is_prime_power(c) is None:
        c += 1
    return c


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
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible of degree {m} over GF({p})")


def _log_tables(order, add, mul):
    """exp, log and Zech tables of GF(order), from its add and mul.

    g is the smallest element whose powers take n = order - 1 steps to
    return to 1.  ``exp`` holds its powers twice, then n zeros; ``zech[d]``
    is log(1 + g^d), or 2n, which reads that zero tail, where 1 + g^d = 0.
    Stored twice, ``zech`` wraps any index in (-n, 2n).  -1 = g^half."""
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
    zech = [log[s] if s else 2 * n for s in (add(1, x) for x in powers)]
    half = zech.index(2 * n)
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


class BaseField:
    """GF(p^m) with elements 0..q-1 encoded as base-p coefficient vectors.
    Its ``add`` and ``mul`` only build a tower's level-1 tables."""

    def __init__(self, q: int):
        pm = is_prime_power(check_base_order(q))
        if pm is None:
            raise ValueError(f"field order {q} is not a prime power")
        self.p, self.m = pm
        self.q = q
        if self.m > 1 and q > _BASE_TABLE_MAX:
            raise ValueError(f"base field GF({q}) exceeds the supported desk scale")
        self.poly = _monic_irreducible(self.p, self.m)

    def _digits(self, a):
        out = []
        for _ in range(self.m):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def _undigits(self, ds):
        acc = 0
        for d in reversed(ds):
            acc = acc * self.p + d
        return acc

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return self._undigits([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def mul(self, a, b):
        if self.m == 1:
            return a * b % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._undigits(_poly_mod(prod, self.poly, self.p))


class TowerField:
    """Quadratic-extension tower over a BaseField.

    ``level_order(j)`` gives the order of the level-j subfield (levels 0 and
    1 both mean GF(q)); ``order`` is the top level's.  All arithmetic acts
    on ints below ``order``; lower-level elements are already embedded.

    A tower of L >= 2 levels holds the tower of L - 1 levels.  Up to order
    2^16 every operation reads this level's tables; above that ``_log`` is
    None and the operations are the pair arithmetic over the level below.
    """

    def __init__(self, base: BaseField, levels: int):
        if levels < 1:
            raise ValueError("a tower needs at least one level")
        self.base = base
        self.levels = levels
        self.q = base.q
        self._sizes = [base.q, base.q]        # level j has order q^(2^(j-1))
        while len(self._sizes) <= levels:
            if self._sizes[-1] > _LOG_TABLE_MAX:
                raise ValueError(f"tower level GF({self._sizes[-1]}) below the top "
                                 "exceeds the supported desk scale")
            self._sizes.append(self._sizes[-1] ** 2)
        self.order = self._sizes[levels]
        self.dim_p = base.m << (levels - 1)   # over GF(p)
        if levels == 1:
            self.quads = {}                   # level -> (lin, const), coeffs in the level below
            add, mul = base.add, base.mul
        else:
            below = TowerField(base, levels - 1)
            self._s = below.order
            self._badd, self._bsub, self._bneg, self._bmul = below.add, below.sub, below.neg, below.mul
            self._lin, self._const = _find_quadratic(below)
            self.quads = {**below.quads, levels: (self._lin, self._const)}
            add, mul = self._pair_add, self._pair_mul
        if self.order <= _LOG_TABLE_MAX:
            self._exp, self._log, self._zech, self._half = _log_tables(self.order, add, mul)
        else:
            self._log = None
            self.add, self.sub, self.neg = self._pair_add, self._pair_sub, self._pair_neg
            self.mul, self.pow = self._pair_mul, self._pair_pow

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

    def _pair_pow(self, x, e):
        if e < 0:
            raise ValueError("negative exponent")
        acc = 1
        while e:
            if e & 1:
                acc = self._pair_mul(acc, x)
            x = self._pair_mul(x, x)
            e >>= 1
        return acc

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

    def check(self, x):
        if not isinstance(x, int) or not 0 <= x < self.order:
            raise ValueError(f"{x!r} is not an element of a field of order {self.order}")
        return x

    # -- textual element format: GF(p) coefficient vector, low index first --

    def element_coeffs(self, x):
        self.check(x)
        out = []
        for _ in range(self.dim_p):
            x, c = divmod(x, self.base.p)
            out.append(c)
        return tuple(out)

    def element_from_coeffs(self, coeffs):
        if len(coeffs) != self.dim_p:
            raise ValueError(f"expected {self.dim_p} coefficients, got {len(coeffs)}")
        acc = 0
        for c in reversed(coeffs):
            if not 0 <= c < self.base.p:
                raise ValueError(f"coefficient {c} out of range for GF({self.base.p})")
            acc = acc * self.base.p + c
        return acc

    def format_element(self, x):
        return "[" + ",".join(str(c) for c in self.element_coeffs(x)) + "]"

    def parse_element(self, text):
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"malformed element {text!r}: expected [c0,c1,...]")
        body = s[1:-1].strip()
        try:
            coeffs = [int(c) for c in body.split(",")] if body else []
        except ValueError:
            raise ValueError(f"malformed element {text!r}: non-integer coefficient") from None
        return self.element_from_coeffs(coeffs)


def make_tower(q: int, a: int) -> TowerField:
    """Tower sized for an a-erasure code: max(a-1, 1) levels over GF(q)."""
    if a < 2:
        raise ValueError("a must be at least 2")
    return TowerField(BaseField(q), max(a - 1, 1))
