"""Structured matrix constructions and a rank test over a tower field.

Matrices are tuples/lists of row sequences holding field ints, with the
owning TowerField passed alongside.  Everything here is desk scale (at most
a few dozen rows), so the one linear-algebra question, whether a set of
columns is independent, is answered by ``rank``: dense forward elimination
with first-nonzero pivoting.  Superregularity of the constructed matrices
is confirmed by ranking every square submatrix rather than trusted from
theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf import TowerField


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def rank(field, rows):
    """Pivot count of forward elimination with first-nonzero pivoting."""
    work = [list(r) for r in rows]
    nrows = len(work)
    pr = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(pr, nrows) if work[i][col]), None)
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        prow = work[pr]
        inv_p = field.inv(prow[col])
        for i in range(pr + 1, nrows):
            if work[i][col]:
                f = field.mul(work[i][col], inv_p)
                work[i] = [field.sub(v, field.mul(f, pv)) for v, pv in zip(work[i], prow)]
        pr += 1
        if pr == nrows:
            break
    return pr


def in_span(field, vec, vectors):
    """True iff vec lies in the span of the given vectors (empty span = {0})."""
    if not vectors:
        return not any(vec)
    rows = [list(col) for col in zip(*vectors)]
    base = rank(field, rows)
    aug = [row + [v] for row, v in zip(rows, vec)]
    return rank(field, aug) == base


def is_superregular(field, rows):
    """Every square submatrix nonsingular, checked exhaustively."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    for z in range(1, min(nr, nc) + 1):
        for ii in itertools.combinations(range(nr), z):
            for jj in itertools.combinations(range(nc), z):
                sub = [[rows[i][j] for j in jj] for i in ii]
                if rank(field, sub) < z:
                    return False
    return True


# -- constructions --

def _power_matrix(field, nrows, ncols):
    # entry (i, j) = x_j ** i, x_j the (j+1)-th field element
    return [[field.pow(j + 1, i) for j in range(ncols)] for i in range(nrows)]


def _cauchy_matrix(field, nrows, ncols):
    # 1 / (x_i - y_j) over the first nrows+ncols field elements; the x and y
    # sets are disjoint so every difference is invertible
    return [[field.inv(field.sub(i, nrows + j)) for j in range(ncols)] for i in range(nrows)]


def _rs_parity_part(field, nrows, ncols):
    """Parity block of a systematic doubly extended Reed-Solomon generator.

    Messages sit at the first nrows field elements, parities at the next
    ncols-1 elements plus the leading coefficient; needs q >= nrows+ncols-1.
    """
    pts = list(range(nrows + ncols - 1))
    msg_pts, par_pts = pts[:nrows], pts[nrows:]
    rows = []
    for i in range(nrows):
        denom = 1
        for i2 in range(nrows):
            if i2 != i:
                denom = field.mul(denom, field.sub(msg_pts[i], msg_pts[i2]))
        dinv = field.inv(denom)
        row = []
        for y in par_pts:
            num = 1
            for i2 in range(nrows):
                if i2 != i:
                    num = field.mul(num, field.sub(y, msg_pts[i2]))
            row.append(field.mul(num, dinv))
        row.append(dinv)    # evaluation "at infinity": leading coefficient
        rows.append(row)
    return rows


def superregular_matrix(field: TowerField, nrows: int, ncols: int):
    """nrows x ncols matrix over GF(q), every square submatrix nonsingular.

    Tries the power form x_j**i first, since it reproduces the published
    small-parameter tables, then falls back to a difference-Cauchy matrix
    (q >= nrows+ncols) or the parity part of a systematic doubly extended
    Reed-Solomon generator (q >= nrows+ncols-1).  Whatever wins is checked
    exhaustively before being returned.
    """
    q = field.q
    if q < nrows + ncols - 1:
        raise ValueError(
            f"need q >= {nrows + ncols - 1} for a {nrows}x{ncols} superregular matrix, got q={q}")
    if q >= ncols + 1:
        cand = _power_matrix(field, nrows, ncols)
        if is_superregular(field, cand):
            return _freeze(cand)
    cand = _cauchy_matrix(field, nrows, ncols) if q >= nrows + ncols else _rs_parity_part(field, nrows, ncols)
    if not is_superregular(field, cand):
        raise RuntimeError("internal error: constructed matrix failed the minor check")
    return _freeze(cand)


@dataclass(frozen=True)
class ParityWeights:
    """Per-lag parity weight columns.

    ``base`` is the superregular matrix over GF(q); ``rows`` is the same
    matrix with column j scaled by the level-j tower scalar, so column j
    lives in the level-j subfield and strictly outside level j-1 for j >= 2.
    """
    tower: TowerField
    base: tuple
    rows: tuple

    @property
    def span(self):         # rows: symbols per diagonal slice
        return len(self.rows)

    @property
    def lags(self):         # columns: number of staggered diagonal blocks
        return len(self.rows[0])

    def column(self, j):
        return tuple(row[j] for row in self.rows)


def parity_weights(tower: TowerField, base_rows) -> ParityWeights:
    base = _freeze(base_rows)
    ncols = len(base[0])
    if ncols - 1 > tower.levels:
        raise ValueError(f"{ncols} weight columns need a tower with at least {ncols - 1} levels")
    rows = tuple(
        tuple(tower.mul(base[i][j], tower.level_scalar(j)) for j in range(ncols))
        for i in range(len(base))
    )
    return ParityWeights(tower=tower, base=base, rows=rows)


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Parity check [stacked weight blocks | -I] of the block code whose
    erasure behavior carries the streaming guarantees.

    Row i holds the transposed weight columns i, i-1, ..., 0 followed by
    zeros across the message positions, then -1 at identity position i.
    """
    tower: TowerField
    rows: tuple
    lags: int
    span: int

    @property
    def block_len(self):
        return self.lags * (self.span + 1)

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.block_len)]


def stacked_parity_check(weights: ParityWeights) -> ParityCheckMatrix:
    tower = weights.tower
    a, r = weights.lags, weights.span
    neg_one = tower.neg(1)
    rows = []
    for i in range(a):
        row = []
        for j in range(a):
            if j <= i:
                row.extend(weights.rows[w][i - j] for w in range(r))
            else:
                row.extend([0] * r)
        row.extend(neg_one if i2 == i else 0 for i2 in range(a))
        rows.append(tuple(row))
    return ParityCheckMatrix(tower=tower, rows=tuple(rows), lags=a, span=r)
