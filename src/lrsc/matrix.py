"""Structured matrix constructions and the library's one row reduction.

Matrices are tuples/lists of row sequences holding field ints, with the
owning TowerField passed alongside.  One incremental reduced-echelon system
(``Echelon``) is shared by the decoder's transition table and ``in_span``.
The superregularity of a constructed matrix is checked on every square
submatrix's determinant rather than trusted from theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf import TowerField


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


class Echelon:
    """Sparse system in reduced row echelon form: ``rows`` maps pivot ids
    (ints) to rows, lists led by a coeff dict storing no zero, 1 at a
    pivot no other row holds; the row kernels touch nothing past it.  A
    pivot is its row's smallest id, as clearing a pivot adds only larger
    ids to a row; so popping the row of the smallest id, if any, projects
    it out."""

    def __init__(self, field):
        self._inv, self._row_sub, self._row_scale = field.inv, field.row_sub, field.row_scale
        self.rows = {}

    def insert(self, row):
        """Reduce the row and store it under its smallest id: True, or False
        for a row reducing to nothing."""
        rows, row_sub, coeffs = self.rows, self._row_sub, row[0]
        for pid in [p for p in coeffs if p in rows]:
            # the pivot's 1 at pid cancels the row's coefficient there
            row_sub(row, coeffs[pid], rows[pid])
        if not coeffs:
            return False
        self._pivot(row, min(coeffs))
        return True

    def _pivot(self, row, pid):
        """Scale the row to 1 at id pid in place, clear pid from every stored
        row with it and store it under pid.  Only a row of a smaller pivot
        can hold pid."""
        s = self._inv(row[0][pid])
        if s != 1:
            self._row_scale(row, s)
        rows, row_sub = self.rows, self._row_sub
        for qid in sorted(rows):
            if qid > pid:
                break
            qc = rows[qid][0]
            if pid in qc:
                row_sub(rows[qid], qc[pid], row)
        rows[pid] = row


def in_span(field, vec, vectors):
    """True iff vec lies in the span of the given vectors (empty span = {0}).
    vec is one more column, at id len(vectors), and the largest id: a row
    reduced to that column alone reads 0 = nonzero."""
    ech, last = Echelon(field), len(vectors)
    for coords in zip(*vectors, vec):
        ech.insert([{j: v for j, v in enumerate(coords) if v}])
        if last in ech.rows:
            return False
    return True


def is_superregular(field, rows):
    """Every square submatrix nonsingular, checked exhaustively in one pass
    over the minor sizes: each z x z determinant is the cofactor expansion
    along its first row over the (z-1) x (z-1) determinants, kept by (row
    tuple, column tuple) from the size before."""
    if not all(all(row) for row in rows):      # the 1x1 minors
        return False
    nr, nc = len(rows), len(rows[0]) if rows else 0
    add, sub, mul = field.add, field.sub, field.mul
    dets = {((i,), (j,)): x for i, row in enumerate(rows) for j, x in enumerate(row)}
    last = min(nr, nc)
    for z in range(2, last + 1):
        minors = {}
        for ii in itertools.combinations(range(nr), z):
            row, rest = rows[ii[0]], ii[1:]
            for jj in itertools.combinations(range(nc), z):
                det = 0
                for x, j in enumerate(jj):
                    term = mul(row[j], dets[rest, jj[:x] + jj[x + 1:]])
                    det = sub(det, term) if x & 1 else add(det, term)
                if not det:
                    return False
                if z < last:
                    minors[ii, jj] = det
        dets = minors
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
    """Per-lag parity weight columns: the r x a superregular matrix over
    GF(q) with column j scaled by the level-j tower scalar, so column j lives
    in the level-j subfield and strictly outside level j-1 for j >= 2."""
    tower: TowerField
    rows: tuple

    def column(self, j):
        return tuple(row[j] for row in self.rows)


def parity_weights(tower: TowerField, base_rows) -> ParityWeights:
    ncols = len(base_rows[0])
    if ncols - 1 > tower.levels:
        raise ValueError(f"{ncols} weight columns need a tower with at least {ncols - 1} levels")
    scalars = [tower.level_scalar(j) for j in range(ncols)]
    return ParityWeights(tower, tuple(
        tuple(tower.mul(x, s) for x, s in zip(row, scalars)) for row in base_rows))


def stacked_parity_check(weights: ParityWeights):
    """Parity check [stacked weight blocks | -I] of the block code whose
    erasure behavior carries the streaming guarantees, as a tuple of rows.

    Row i holds the transposed weight columns i, i-1, ..., 0 followed by
    zeros across the message positions, then -1 at identity position i.
    """
    w = weights.rows
    r, a = len(w), len(w[0])
    neg_one = weights.tower.neg(1)
    return tuple(
        tuple(w[x][i - j] if j <= i else 0 for j in range(a) for x in range(r))
        + tuple(neg_one if i2 == i else 0 for i2 in range(a))
        for i in range(a))
