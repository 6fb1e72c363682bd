"""Stream codes, the systematic encoder and the deadline-aware
sliding-window decoder.

Every parity symbol is a fixed linear combination of message symbols, held
once per code as a time-invariant coefficient template.  The encoder and the
decoder both read those templates; the closed-form diagonal expressions of
the constructions live in the tests as the independent reference.

The decoder keeps one record per live packet, its k message symbols with
None where unresolved, beside one global linear system over the unresolved
symbols in ``matrix.Echelon``, the reduced-echelon system that ``rank`` and
``in_span`` also run on.  A packet is recovered the moment the system pins
its last unresolved symbol, which serves the single-erasure deadline, the
full-budget deadline, and best-effort recovery past the guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .gf import check_base_order, make_tower, smallest_prime_power_at_least
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


class LrscCode:
    """Stream code for one (a, tau, r) triple: field, weights, and per-parity
    coefficient templates.

    ``templates[i]`` lists (symbol_index, delta, coeff) terms meaning
    parity i at time t sums coeff * m_symbol(t - delta) over delta <= t.
    """

    def __init__(self, params: CodeParams):
        self.params = params
        self.field = make_tower(params.q, params.a)
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


class MdsDeCode:
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
            q = smallest_prime_power_at_least(check_base_order(q_min))
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
    outcome the moment the record ``known[t]`` holds all k message symbols,
    or a lost outcome once time moves past the t+tau deadline.  Records of
    lost packets stay live for a few windows, their unresolved symbols (t, j)
    in the echelon rows, so later parities can still be stripped; a late
    resolution never un-marks the loss.

    Parities are read, and so checked, only on pushes made while some symbol
    is unresolved.  On a clean stretch a corrupted parity passes unnoticed:
    checking it would cost an encoder's worth of field work per packet.
    """

    def __init__(self, code):
        super().__init__(code.field)     # rows: pivot id (t, j) -> [coeff dict, rhs]
        self.code = code
        self.k = code.k
        self.n = code.n
        self.tau = code.tau
        self.next_t = 0
        self.known = {}          # t -> list of k symbols, None where unresolved
        self.missing = set()     # t whose record still holds a None
        # any horizon > tau gives the same outcomes: no parity reaches further
        # back, and Echelon.drop eliminates an unknown exactly.  A longer one
        # keeps reading, and so checking, parities for longer after a loss.
        self.horizon = 4 * (code.tau + 1)

    @property
    def unknowns(self):
        """The unresolved symbols (t, j), derived from the records."""
        return {(t, j) for t in self.missing for j, v in enumerate(self.known[t]) if v is None}

    def push(self, t, packet) -> list[PacketOutcome]:
        if t != self.next_t:
            raise ValueError(f"packets must be pushed in time order; expected t={self.next_t}, got t={t}")
        self.next_t += 1
        out = []
        if t - self.tau - 1 in self.missing:
            out.append(PacketOutcome(t - self.tau - 1, recovered=False))
        if packet is None:
            self.known[t] = [None] * self.k
            self.missing.add(t)
        else:
            if packet.t != t:
                raise ValueError(f"packet time {packet.t} does not match push time {t}")
            syms = packet.symbols
            if len(syms) != self.n:
                raise ValueError(f"expected {self.n} coded symbols, got {len(syms)}")
            _check_symbols(self.code.field, syms)
            msg = syms[:self.k]
            self.known[t] = list(msg)
            out.append(PacketOutcome(t, recovered=True, delay=0, message=msg))
            if self.missing:
                for i in range(self.n - self.k):
                    self._absorb_parity(i, t, syms[self.k + i], out)
        self._prune(t)
        return out

    def _absorb_parity(self, i, t, value, out):
        known = self.known
        sub, mul = self._sub, self._mul
        coeffs = {}
        rhs = value
        for j, d, c in self.code.templates[i]:
            tt = t - d
            if tt < 0:
                continue
            record = known.get(tt)
            if record is None:
                raise DecodeError(f"symbol {(tt, j)} neither known nor tracked")
            val = record[j]
            if val is None:
                coeffs[(tt, j)] = c
            elif val:
                rhs = sub(rhs, mul(c, val))
        row = [coeffs, rhs]
        if self.insert(row) is None:
            if row[1]:
                raise DecodeError("received parity inconsistent with resolved symbols")
            return
        rows = self.rows
        for qid in [qid for qid, (qc, _) in rows.items() if len(qc) == 1]:
            self._resolve(qid, rows.pop(qid)[1], t, out)

    def _resolve(self, sid, value, now, out):
        t, j = sid
        record = self.known[t]
        record[j] = value
        if None not in record:
            self.missing.discard(t)
            if now - t <= self.tau:      # later, push already reported it lost
                out.append(PacketOutcome(t, recovered=True, delay=now - t, message=tuple(record)))

    # -- retention --

    def _prune(self, t):
        tp = t - self.horizon
        if tp < 0:
            return
        for j, v in enumerate(self.known.pop(tp)):
            if v is None:
                self.drop((tp, j))
        self.missing.discard(tp)
