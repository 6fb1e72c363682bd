"""Stream codes, the systematic encoder and the deadline-aware
sliding-window decoder.

Every parity symbol is a fixed linear combination of message symbols, held
once per code as a time-invariant coefficient template.  The encoder and the
decoder both read those templates; the closed-form diagonal expressions of
the constructions live in the tests as the independent reference.

The decoder keeps one global linear system over the currently-unknown
message symbols, held in ``matrix.Echelon``: the one incremental
reduced-echelon system that ``rank`` and ``in_span`` also run on.  A symbol is
emitted the moment the system pins it uniquely, which makes the same
machinery serve the single-erasure deadline, the full-budget deadline, and
best-effort recovery past the guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .gf import TowerField, make_tower, smallest_prime_power_at_least
from .matrix import Echelon, is_superregular, parity_weights, superregular_matrix
from .params import CodeParams, derive_params


class CodedPacket(NamedTuple):
    t: int
    symbols: tuple      # k message symbols followed by n-k parity symbols


@dataclass(frozen=True)
class PacketOutcome:
    t: int
    recovered: bool
    delay: int | None = None
    message: tuple | None = None


class DecodeError(ValueError):
    """A parity the decoder read contradicts the resolved symbols or its
    state; ``Decoder`` says which parities it reads."""


def _check_symbols(field, symbols):
    """Raise ValueError unless every symbol is an element of the field."""
    order = field.order
    for s in symbols:
        if not isinstance(s, int) or not 0 <= s < order:
            raise ValueError(f"symbol {s!r} is not an element of the field of order {order}")


def _sort_template(terms):
    # ascending referenced time (descending delta), then symbol index
    terms = sorted(terms, key=lambda s: (-s[1], s[0]))
    seen = set()
    for sym, delta, _ in terms:
        if (sym, delta) in seen:
            raise RuntimeError(f"duplicate term {(sym, delta)} in parity template")
        seen.add((sym, delta))
    return tuple(terms)


class _TemplateCode:
    """Base of the stream codes, which hold every parity in ``templates``."""

    def parity_terms(self, i, t):
        """Parity i at time t as [((time, symbol), coeff), ...], nonnegative
        times only."""
        return [((t - d, j), c) for (j, d, c) in self.templates[i] if d <= t]


class LrscCode(_TemplateCode):
    """Stream code for one (a, tau, r) triple: field, weights, and per-parity
    coefficient templates.

    ``templates[i]`` lists (symbol_index, delta, coeff) terms meaning
    parity i at time t sums coeff * m_symbol(t - delta) over delta <= t.
    """

    def __init__(self, params: CodeParams, tower: TowerField | None = None):
        self.params = params
        self.field = tower if tower is not None else make_tower(params.q, params.a)
        base = superregular_matrix(self.field, params.r, params.a)
        self.weights = parity_weights(self.field, base)
        self.k = params.k
        self.n = params.n
        self.tau = params.tau
        # no commas: the label lands in a CSV column
        self.label = f"lrsc-{params.a}-{params.tau}-{params.r}"
        if params.regime == "short":
            self.templates = tuple(self._short_template(i) for i in range(params.a))
        else:
            self.templates = (self._exact_template(),)

    def _exact_template(self):
        p = self.params
        terms = []
        for j in range(p.a):
            col = self.weights.column(j)
            base_delta = p.r + j * (p.r + 1)
            for w in range(p.r):
                terms.append((w, base_delta - w, col[w]))
        return _sort_template(terms)

    def _short_template(self, i):
        p = self.params
        u, v, ell, r, a = p.u, p.v, p.ell, p.r, p.a
        terms = []
        if i < u:
            for j in range(i + 1):
                col = self.weights.column(j)
                block = i - j
                for w in range(r):
                    terms.append((block * r + w, r + j * (r + 1) - w, col[w]))
            for j in range(i, u):
                col = self.weights.column(a - u + j)
                block = u + i - j
                width = v if block == u else r
                for w in range(width):
                    terms.append((block * r + w, r + j * (r + 1) + v + ell - w, col[w]))
        else:
            ii = i - u
            for j in range(u + 1):
                col = self.weights.column(j + ii)
                block = u - j
                width = v if block == u else r
                for w in range(width):
                    terms.append((block * r + w, v + ii + j * (r + 1) - w, col[w]))
        return _sort_template(terms)


class MdsDeCode(_TemplateCode):
    """Baseline (a, tau) stream code: each stream diagonal carries a codeword
    of a systematic [tau+1, tau+1-a] MDS block code."""

    def __init__(self, a: int, tau: int, q_override: int | None = None):
        if a < 1:
            raise ValueError(f"a must be at least 1, got a={a}")
        if a > tau:
            raise ValueError(f"a must not exceed tau, got a={a}, tau={tau}")
        self.a = a
        self.tau = tau
        self.k = tau + 1 - a
        self.n = tau + 1
        q_min = max(2, self.n - 1)
        if q_override is not None:
            if q_override < self.n - 1:
                raise ValueError(
                    f"field of order {q_override} too small for the diagonal MDS code "
                    f"(needs order >= {self.n - 1}, doubly extended)")
            q = q_override
        else:
            q = smallest_prime_power_at_least(q_min)
        self.field = make_tower(q, 2)
        self.pg = self._parity_part()
        self.label = f"mds-de-{a}-{tau}"
        self.templates = tuple(self._template(i) for i in range(a))
        self.params = None

    def _parity_part(self):
        f = self.field
        k, a = self.k, self.a
        if f.q >= k + 1:
            cand = [[f.pow(j + 1, i) for i in range(a)] for j in range(k)]
            if is_superregular(f, cand):
                return tuple(tuple(r) for r in cand)
        return superregular_matrix(f, k, a)

    def _template(self, i):
        # parity i at time t closes the diagonal that started at t - (k+i)
        terms = [(j, self.k + i - j, self.pg[j][i]) for j in range(self.k)]
        return _sort_template(terms)


def make_lrsc(a: int, tau: int, r: int, q_override: int | None = None) -> LrscCode:
    return LrscCode(derive_params(a, tau, r, q_override))


class Encoder:
    """Systematic streaming encoder; retains the last tau+1 message packets."""

    def __init__(self, code):
        self.code = code
        self.history = {}
        self.next_t = 0
        f = code.field
        self._add, self._mul = f.add, f.mul

    def push(self, message) -> CodedPacket:
        code = self.code
        msg = tuple(message)
        if len(msg) != code.k:
            raise ValueError(f"expected {code.k} message symbols, got {len(msg)}")
        _check_symbols(code.field, msg)
        t = self.next_t
        self.next_t += 1
        history = self.history
        history[t] = msg
        add, mul = self._add, self._mul
        parities = []
        for template in code.templates:
            acc = 0
            for j, d, c in template:
                if d <= t:
                    x = history[t - d][j]
                    if x:
                        acc = add(acc, mul(x, c))
            parities.append(acc)
        history.pop(t - code.tau - 1, None)
        return CodedPacket(t, msg + tuple(parities))


class Decoder(Echelon):
    """Sliding-window decoder over one packet stream.

    Push packets (or None for an erasure) in time order starting at 0.
    Each push returns the packets whose fate was settled by it: a recovered
    outcome the moment all k message symbols are pinned, or a lost outcome
    once time moves past the t+tau deadline.  Unknowns of lost packets stay
    live for a few windows so later parities can still be stripped; a late
    resolution never un-marks the loss.

    Parities are read, and so checked, only on pushes made while some symbol
    is unresolved.  On a clean stretch a corrupted parity passes unnoticed:
    checking it would cost an encoder's worth of field work per packet.
    """

    def __init__(self, code):
        super().__init__(code.field)     # rows: pivot id -> [coeff dict, rhs]
        self.code = code
        self.k = code.k
        self.n = code.n
        self.tau = code.tau
        self.next_t = 0
        self.known = {}          # (t, j) -> value
        self.unknowns = set()    # (t, j) still unresolved
        self.missing = {}        # t -> set of unresolved symbol indices
        # any horizon > tau gives the same outcomes: no parity reaches further
        # back, and Echelon.drop eliminates an unknown exactly.  A longer one
        # keeps reading, and so checking, parities for longer after a loss.
        self.horizon = 4 * (code.tau + 1)

    def push(self, t, packet) -> list[PacketOutcome]:
        if t != self.next_t:
            raise ValueError(f"packets must be pushed in time order; expected t={self.next_t}, got t={t}")
        self.next_t += 1
        out = []
        dead = t - self.tau - 1
        if dead in self.missing:
            out.append(PacketOutcome(dead, recovered=False))
        if packet is None:
            self.missing[t] = set(range(self.k))
            for j in range(self.k):
                self.unknowns.add((t, j))
        else:
            if packet.t != t:
                raise ValueError(f"packet time {packet.t} does not match push time {t}")
            syms = packet.symbols
            if len(syms) != self.n:
                raise ValueError(f"expected {self.n} coded symbols, got {len(syms)}")
            _check_symbols(self.code.field, syms)
            known = self.known
            for j in range(self.k):
                known[(t, j)] = syms[j]
            out.append(PacketOutcome(t, recovered=True, delay=0, message=syms[:self.k]))
            if self.unknowns:
                for i in range(self.n - self.k):
                    self._absorb_parity(i, t, syms[self.k + i], out)
        self._prune(t)
        return out

    def _absorb_parity(self, i, t, value, out):
        known = self.known
        unknowns = self.unknowns
        sub, mul = self._sub, self._mul
        coeffs = {}
        rhs = value
        for j, d, c in self.code.templates[i]:
            tt = t - d
            if tt < 0:
                continue
            sid = (tt, j)
            val = known.get(sid)
            if val is not None:
                if val:
                    rhs = sub(rhs, mul(c, val))
            elif sid in unknowns:
                coeffs[sid] = c
            else:
                raise DecodeError(f"symbol {sid} neither known nor tracked")
        row = [coeffs, rhs]
        if self.insert(row) is None:
            if row[1]:
                raise DecodeError("received parity inconsistent with resolved symbols")
            return
        rows = self.rows
        for qid in [qid for qid, (qc, _) in rows.items() if len(qc) == 1]:
            self._resolve(qid, rows.pop(qid)[1], t, out)

    def _resolve(self, sid, value, now, out):
        self.unknowns.discard(sid)
        self.known[sid] = value
        t, j = sid
        miss = self.missing[t]
        miss.discard(j)
        if not miss:
            del self.missing[t]
            if now - t <= self.tau:      # later, push already reported it lost
                msg = tuple(self.known[(t, jj)] for jj in range(self.k))
                out.append(PacketOutcome(t, recovered=True, delay=now - t, message=msg))

    # -- retention --

    def _prune(self, t):
        tp = t - self.horizon
        if tp < 0:
            return
        for j in range(self.k):
            sid = (tp, j)
            self.known.pop(sid, None)
            if sid in self.unknowns:
                self.unknowns.discard(sid)
                self.drop(sid)
        self.missing.pop(tp, None)
