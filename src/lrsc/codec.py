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

import collections
from dataclasses import dataclass

from .gf import make_tower, smallest_prime_power_at_least
# is_superregular: unused, but perfbench's traced set-up rebinds it
from .matrix import Echelon, is_superregular, parity_weights, superregular_matrix
from .params import CodeParams, derive_params


@dataclass(frozen=True)
class PacketOutcome:
    t: int
    recovered: bool
    delay: int | None = None
    message: tuple | None = None


class DecodeError(ValueError):
    """A received parity contradicts the resolved symbols, or references a
    symbol the decoder's window does not hold."""


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
        if a.__class__ is not int or tau.__class__ is not int:
            raise ValueError(f"a and tau must be ints, got a={a!r}, tau={tau!r}")
        if a < 1:
            raise ValueError(f"a must be at least 1, got a={a}")
        if a > tau:
            raise ValueError(f"a must not exceed tau, got a={a}, tau={tau}")
        self.a = a
        self.tau = tau
        self.k = tau + 1 - a
        self.n = tau + 1
        q = smallest_prime_power_at_least(self.n - 1) if q_override is None else q_override
        self.field = make_tower(q, 2)
        if q < self.n - 1:
            raise ValueError(
                f"field of order {q} too small for the diagonal MDS code "
                f"(needs order >= {self.n - 1}, doubly extended)")
        # k x a: row j holds message symbol j's weight in each parity
        self.pg = tuple(zip(*superregular_matrix(self.field, a, self.k)))
        self.label = f"mds-de-{a}-{tau}"
        self.templates = tuple(self._template(i) for i in range(a))
        self.params = None

    def _template(self, i):
        # parity i at time t closes the diagonal that started at t - (k+i)
        terms = [(j, self.k + i - j, self.pg[j][i]) for j in range(self.k)]
        return _sort_template(terms)


def make_lrsc(a: int, tau: int, r: int, q_override: int | None = None) -> LrscCode:
    return LrscCode(derive_params(a, tau, r, q_override))


def parity_terms(field, template, t, records, k):
    """Walk a parity template at time t over records (time -> k symbols,
    None where unresolved): the coefficients {t'*k + j: c} of the unresolved
    terms and the sum of the resolved ones.  A referenced time without a
    record raises DecodeError."""
    coeffs = {}
    cs, xs = [], []
    for j, d, c in template:
        tt = t - d
        if tt < 0:
            continue
        record = records.get(tt)
        if record is None:
            raise DecodeError(f"symbol {(tt, j)} neither known nor tracked")
        x = record[j]
        if x is None:
            coeffs[tt * k + j] = c
        elif x:
            cs.append(c)
            xs.append(x)
    return coeffs, field.dot(cs, xs)


class Encoder:
    """Systematic streaming encoder; retains the last tau+1 message packets."""

    def __init__(self, code):
        self.code = code
        self.history = {}
        self.next_t = 0

    def push(self, message) -> tuple:
        """The next coded packet: its n symbols, k message then n-k parity."""
        code = self.code
        msg = tuple(message)
        code.field.check(msg, code.k)
        t = self.next_t
        self.next_t += 1
        history = self.history
        history[t] = msg
        parities = tuple(parity_terms(code.field, tp, t, history, code.k)[1] for tp in code.templates)
        history.pop(t - code.tau - 1, None)
        return msg + parities


class Decoder(Echelon):
    """Sliding-window decoder over one packet stream.

    Push each coded packet, the tuple of its n symbols as ``Encoder.push``
    returns it (or None for an erasure), in time order starting at 0, and
    ``resume`` on a run of received packets whenever nothing is unresolved.
    Each push returns the packets whose fate was settled by it: a recovered
    outcome the moment the record ``known[t]`` holds all k message symbols,
    or a lost outcome once time moves past the t+tau deadline.  The window
    is the last tau+1 packets, as far back as a parity reaches: the push at
    t retires packet t-tau-1, reporting it lost if it is unresolved, and
    drops its record and its unresolved symbols' rows.

    Every received packet's parities are read, and so checked.
    """

    def __init__(self, code):
        super().__init__(code.field)     # rows: pivot id t*k + j -> [coeff dict, rhs]
        self.code = code
        self.k = code.k
        self.n = code.n
        self.tau = code.tau
        self.next_t = 0
        self.known = {}          # t -> list of k symbols, None where unresolved
        self.missing = set()     # t whose record still holds a None

    @property
    def unknowns(self):
        """The unresolved symbols (t, j), derived from the records."""
        return {(t, j) for t in self.missing for j, v in enumerate(self.known[t]) if v is None}

    def fork(self):
        """An independent decoder in the same state; keeps the class."""
        c = object.__new__(type(self))
        c.__dict__.update(self.__dict__)
        c.known = {t: list(v) for t, v in self.known.items()}
        c.missing = set(self.missing)
        c.rows = {p: [dict(cf), rhs] for p, (cf, rhs) in self.rows.items()}
        return c

    def push(self, t, symbols) -> list[PacketOutcome]:
        if t != self.next_t or t.__class__ is not int:
            raise ValueError(f"packets must be pushed in time order as ints; "
                             f"expected t={self.next_t}, got t={t!r}")
        code, k = self.code, self.k
        if symbols is not None:
            code.field.check(symbols, self.n)
        self.next_t += 1
        out = []
        dead = t - self.tau - 1
        known, rows = self.known, self.rows
        record = known.pop(dead, None)
        if dead in self.missing:
            # exact: each id of packet dead in turn is the smallest live id
            # (see Echelon), and no later parity reads it
            self.missing.remove(dead)
            out.append(PacketOutcome(dead, False))
            for j, v in enumerate(record):
                if v is None:
                    rows.pop(dead * k + j, None)
        if symbols is None:
            known[t] = [None] * k
            self.missing.add(t)
            return out
        msg = tuple(symbols[:k])
        known[t] = list(msg)
        out.append(PacketOutcome(t, True, 0, msg))
        field = code.field
        for template, value in zip(code.templates, symbols[k:]):
            coeffs, acc = parity_terms(field, template, t, known, k)
            row = [coeffs, field.sub(value, acc)]
            touched = self.insert(row)
            if not touched and row[1]:
                raise DecodeError("received parity inconsistent with resolved symbols")
            for qid in touched:
                if len(rows[qid][0]) == 1:
                    self._resolve(qid, rows.pop(qid)[1], t, out)
        return out

    def resume(self, messages):
        """Take the next packets as received, given by their k message
        symbols (a coded packet's first k), in one pass over the iterable
        `messages`, and return nothing.

        The state is the one pushing them would leave but for the parities,
        which are not read: each packet settles at delay 0, nothing earlier
        settles, and only the last tau+1 records are kept.  Every message is
        checked before any is taken.  Only a decoder with nothing unresolved
        can resume; a fresh one has nothing unresolved.
        """
        if self.missing:
            raise ValueError(f"resume needs nothing unresolved; packets {sorted(self.missing)} are")
        k, check = self.k, self.code.field.check
        window = collections.deque(maxlen=self.tau + 1)
        t = self.next_t
        for msg in messages:
            check(msg, k)
            window.append(msg)
            t += 1
        known, cut = self.known, t - self.tau - 1
        for old in [u for u in known if u < cut]:
            del known[old]
        known.update(zip(range(t - len(window), t), map(list, window)))
        self.next_t = t

    def _resolve(self, sid, value, now, out):
        t, j = divmod(sid, self.k)
        record = self.known[t]
        record[j] = value
        if None not in record:
            self.missing.discard(t)
            out.append(PacketOutcome(t, True, now - t, tuple(record)))
