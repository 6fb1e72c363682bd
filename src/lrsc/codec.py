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

The code is linear, so no coefficient of the system depends on a symbol
value.  The coefficients are the decoder's state in a transition table
(``Transitions``), which a decoder built by ``Decoder(code)`` starts and
shares with every fork of itself; the table lives as long as they do, one
``verify_stream`` or ``run_sim`` call, and code objects stay immutable.
The first push of a (state, flag) eliminates on the state's rows, built
with the decoder's values, and records the move as a plan on values:
which resolved parity terms to sum, the rhs row operations, the zero
checks and the writes.  Every later push of that (state, flag), by any
fork, checks its packet as before and replays the plan, with no
coefficient dict.  A parity term before time 0 reads 0 in both, so a plan
recorded at the start of a stream holds at any time.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass

from .gf import make_tower, smallest_prime_power_at_least
# is_superregular: unused, but perfbench's traced set-up rebinds it
from .matrix import Echelon, is_superregular, parity_weights, superregular_matrix
from .params import CodeParams, derive_params


@dataclass(frozen=True, init=False)
class PacketOutcome:
    t: int
    recovered: bool
    delay: int | None = None
    message: tuple | None = None

    def __init__(self, t, recovered, delay=None, message=None):
        # one store of the whole __dict__, where the frozen dataclass's own
        # __init__ makes one object.__setattr__ call per field: every push
        # makes its outcomes here
        object.__setattr__(self, "__dict__", {"t": t, "recovered": recovered,
                                              "delay": delay, "message": message})


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


# The most states one transition table stores.  Past it, a decoder that
# enters a new state eliminates each push, and keys its state only once
# nothing is unresolved (``_LIVE``).
_STATE_CAP = 2048


class _State:
    """A decoder's coefficient state: its unresolved ids and its rows, each
    row a tuple of (id, coeff) sorted by id, its pivot first, every id
    shifted by -next_t*k.  A stored state has its ``number`` in its table,
    and ``moves``: its move on a received and on an erased packet, each
    None until recorded.  A move is (the next state's number, outs, plan):
    outs lists the packets the push settles as (offset from the push time,
    delay or None for a loss), and plan is the push on values alone
    (``_Recorder.plan``), or None in a table that keeps no plans.  Moves
    name states by number, so a table holds no reference cycle and goes
    with its last decoder."""

    __slots__ = ("ids", "rows", "number", "moves")

    def __init__(self, key, number):
        self.ids, self.rows = key
        self.number = number
        self.moves = None if number is None else [None, None]


# The state of a decoder past the cap that has left the states it keys:
# only its rows hold its system, until nothing is unresolved.
_LIVE = _State(((), ()), None)


class Transitions:
    """The transition table that a decoder shares with its forks: the states
    they met, by ``_key`` and by number, each with its recorded moves.  It
    counts the moves it recorded and the pushes that replayed one.  With
    ``plans`` false a move keeps only its next state and its outcomes, and
    no push replays it."""

    def __init__(self):
        self.index, self.states = {}, []
        self.clean = self.state(((), ()))
        self.plans = True
        self.terms = None           # the parity templates, as ``_Recorder.parity`` reads them
        self.recorded = 0
        self.replayed = 0

    def state(self, key):
        """The state of this key: the stored one, or a new one, stored while
        the table holds fewer than ``_STATE_CAP``."""
        st = self.index.get(key)
        if st is None:
            n = len(self.states)
            st = _State(key, n if n < _STATE_CAP else None)
            if st.moves is not None:
                self.index[key] = st
                self.states.append(st)
        return st


def _key(dec):
    """The decoder's state: its unresolved ids and its rows by pivot, every
    id shifted by -next_t*k.  Its rows are in reduced echelon form with
    smallest-id pivots, which is unique, so equal keys have equal futures
    on equal values."""
    rows, missing = dec.rows, dec.missing
    if not missing and not rows:
        return (), ()
    k, known = dec.k, dec.known
    base = dec.next_t * k
    ids = [t * k + j - base for t in sorted(missing) for j, v in enumerate(known[t]) if v is None]
    key_rows = []
    for p in sorted(rows):
        cf = rows[p][0]
        key_rows.append(tuple([(i - base, cf[i]) for i in sorted(cf)]))
    return tuple(ids), tuple(key_rows)


class _Recorder:
    """Records the plan of one push while the decoder eliminates, for
    ``_State`` moves.  The plan works on values in slots: the rhs of the
    state's rows, then one input per parity, then one slot per scaled row.
    The recorder holds the decoder's row kernels for the push and logs the
    rhs of every row operation in slots; the push reports its parities,
    checks and writes."""

    def __init__(self, dec, rows):
        self.dec = dec
        # every logged row, the state's first in its order, held so that
        # no two of them share an id
        self.held = [rows[p] for p in sorted(rows)]
        self.slot = {id(row): i for i, row in enumerate(self.held)}
        self.base = len(self.held)          # parity p's input is in slot base + p
        self.scaled = 0
        self.ops, self.reads, self.parities, self.checks, self.writes = [], [], [], [], []
        self.written = set()                # the ids this push resolved
        self.replayable = True
        self.prep, self.neg = dec.code.field.prep, dec.code.field.neg
        self.row_sub, self.row_scale = dec._row_sub, dec._row_scale
        dec._row_sub, dec._row_scale = self.sub, self.scale

    def sub(self, row, f, pivot):
        self.row_sub(row, f, pivot)
        self.ops.append((self.slot[id(row)], self.prep(self.neg(f)), self.slot[id(pivot)], True))

    def scale(self, row, s):
        new = self.row_scale(row, s)
        self.held.append(new)
        self.slot[id(new)] = dst = self.base + self.dec.n - self.dec.k + self.scaled
        self.scaled += 1
        self.ops.append((dst, self.prep(s), self.slot[id(row)], False))
        return new

    def close(self):
        self.dec._row_sub, self.dec._row_scale = self.row_sub, self.row_scale

    def parity(self, p, t, coeffs, row):
        """Parity p's row at time t: its value less every term of its
        template whose id is not among the unresolved `coeffs`; a term
        before time 0 reads 0.  A plan reads them all before it writes, so
        a term this push resolved leaves the push without one."""
        dec, table = self.dec, self.dec.table
        if table.terms is None:             # (id - t*k, (delta, j), -c) per term
            k, prep, neg = dec.k, self.prep, self.neg
            table.terms = [[(j - d * k, (d, j), prep(neg(c))) for j, d, c in tp] for tp in dec.code.templates]
        self.held.append(row)
        self.slot[id(row)] = self.base + p
        tk, reads = t * dec.k, self.reads
        terms = [term for term in table.terms[p] if tk + term[0] not in coeffs]
        if self.written and any(tk + term[0] in self.written for term in terms):
            self.replayable = False
        first = dec.n - dec.k + len(reads)
        reads += [term[1] for term in terms]
        self.parities.append(((p, *range(first, first + len(terms))),
                              (self.prep(1), *[term[2] for term in terms])))

    def check(self, row):
        self.checks.append(self.slot[id(row)])

    def write(self, sid, t, row, fills):
        # a plan writes every value after all its row operations, which is
        # the push's order only where each write fills an unresolved symbol
        u, j = divmod(sid, self.dec.k)
        self.writes.append((u - t, j, self.slot[id(row)]))
        self.written.add(sid)
        self.replayable = self.replayable and fills

    def plan(self, order):
        """The plan, for the next state's rows in `order`: (reads, parities,
        ops, scaled, rows, checks, writes).  A received packet's parities
        read its parity values, then the symbols (delta, j) of reads, each
        the record t - delta's symbol j, or 0 before time 0, and parities
        sums them (``dots``) into the parity inputs.  ops are the row
        operations on slots (``run_ops``), which add `scaled` slots; rows
        are the slots of the next state's rhs values, checks those of
        values that must be 0, and writes (offset, j, slot) resolve a
        record's symbol."""
        return (tuple(self.reads), tuple(self.parities), tuple(self.ops), self.scaled,
                tuple([self.slot[id(row)] for row in order]), tuple(self.checks), tuple(self.writes))


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

    The system's coefficients are ``state``, a state of the decoder's
    ``table``; the decoder holds the values, its records and the rhs of
    each of the state's rows.  A push replays the move its table recorded
    for (state, flag), or else eliminates and records it (see the module
    notes).
    """

    def __init__(self, code):
        super().__init__(code.field)
        self.code = code
        self.k = code.k
        self.n = code.n
        self.tau = code.tau
        self.next_t = 0
        self.known = {}          # t -> list of k symbols, None where unresolved
        self.missing = set()     # t whose record still holds a None
        self.table = Transitions()
        self.state = self.table.clean
        # the rhs of the state's rows, in its order, while ``rows`` is not
        # built; once it is, the rows hold them
        self._rhs = []
        del self.rows            # Echelon's own; ``rows`` builds from the state
        self._dots, self._run_ops = code.field.dots, code.field.run_ops

    @functools.cached_property
    def rows(self):
        """pivot id t*k + j -> [coeff dict, rhs]: the system, built from the
        state and the values when first read.  An elimination works on it
        and keeps it; a replay drops it."""
        base = self.next_t * self.k
        return {base + row[0][0]: [{base + i: c for i, c in row}, v]
                for row, v in zip(self.state.rows, self._rhs)}

    @property
    def unknowns(self):
        """The unresolved symbols (t, j), derived from the records."""
        return {(t, j) for t in self.missing for j, v in enumerate(self.known[t]) if v is None}

    def fork(self):
        """An independent decoder in the same state; keeps the class and
        shares the table, and the records that are whole, which no push
        changes."""
        c = object.__new__(type(self))
        c.__dict__.update(self.__dict__)
        system = c.__dict__.pop("rows", None)
        if self.state is _LIVE:
            c.rows = {p: [dict(cf), v] for p, (cf, v) in system.items()}
        elif system is not None:
            c._rhs = [system[p][1] for p in sorted(system)]
        c.known = known = self.known.copy()
        for t in self.missing:
            known[t] = known[t][:]
        c.missing = set(self.missing)
        return c

    def at(self, state, t):
        """A decoder of this one's class and table in `state`, a state the
        table stores, at time t on the all-zero stream: every resolved
        symbol and every rhs is 0."""
        c = object.__new__(type(self))
        c.__dict__.update(self.__dict__)
        k, base = self.k, t * self.k
        c.__dict__.pop("rows", None)
        c.next_t, c.state, c._rhs = t, state, [0] * len(state.rows)
        c.known = {u: [0] * k for u in range(max(0, t - self.tau - 1), t)}
        c.missing = set()
        for i in state.ids:
            u, j = divmod(base + i, k)
            c.known[u][j] = None
            c.missing.add(u)
        return c

    def push(self, t, symbols) -> list[PacketOutcome]:
        if t != self.next_t or t.__class__ is not int:
            raise ValueError(f"packets must be pushed in time order as ints; "
                             f"expected t={self.next_t}, got t={t!r}")
        if symbols is not None:
            self.code.field.check(symbols, self.n)
        moves = self.state.moves
        move = moves and moves[symbols is None]
        if move and move[2] is not None:
            return self._replay(t, symbols, move)
        return self._eliminate(t, symbols, moves)

    def _replay(self, t, symbols, move):
        """Push by a recorded move, on the values alone."""
        self.table.replayed += 1
        nxt, outs, (reads, parities, ops, scaled, rows, checks, writes) = move
        k, known, missing = self.k, self.known, self.missing
        self.next_t = t + 1
        known.pop(t - self.tau - 1, None)
        system = self.__dict__.pop("rows", None)
        if system is None:
            x = self._rhs
        else:
            x = [system[p][1] for p in sorted(system)]
        if symbols is None:
            known[t] = [None] * k
            missing.add(t)
        else:
            msg = tuple(symbols[:k])
            known[t] = list(msg)
            got = list(symbols[k:]) + [known[t - d][j] if t >= d else 0 for d, j in reads]
            x = x + self._dots(parities, got)
            if ops:
                x += [0] * scaled
                self._run_ops(ops, x)
            for i in checks:
                if x[i]:
                    raise DecodeError("received parity inconsistent with resolved symbols")
            for off, j, i in writes:
                known[t + off][j] = x[i]
        self._rhs = [x[i] for i in rows]
        self.state = self.table.states[nxt]
        out = []
        for off, delay in outs:
            u = t + off
            if delay is None:
                missing.remove(u)
                out.append(PacketOutcome(u, False))
            elif off:
                missing.discard(u)
                out.append(PacketOutcome(u, True, delay, tuple(known[u])))
            else:
                out.append(PacketOutcome(t, True, 0, msg))
        return out

    def _eliminate(self, t, symbols, moves):
        """Push by elimination on the state's rows, built with this decoder's
        values.  Where the table stores this state and the next, record the
        move, with its plan where the table keeps plans (``_Recorder``)."""
        k, known, missing, table = self.k, self.known, self.missing, self.table
        rows = self.rows
        rec = _Recorder(self, rows) if moves is not None and table.plans else None
        self.next_t = t + 1
        out = []
        try:
            dead = t - self.tau - 1
            record = known.pop(dead, None)
            if dead in missing:
                # exact: each id of packet dead in turn is the smallest live id
                # (see Echelon), and no later parity reads it
                missing.remove(dead)
                out.append(PacketOutcome(dead, False))
                for j, v in enumerate(record):
                    if v is None:
                        rows.pop(dead * k + j, None)
            if symbols is None:
                known[t] = [None] * k
                missing.add(t)
            else:
                field = self.code.field
                msg = tuple(symbols[:k])
                known[t] = list(msg)
                out.append(PacketOutcome(t, True, 0, msg))
                for p, (template, value) in enumerate(zip(self.code.templates, symbols[k:])):
                    coeffs, acc = parity_terms(field, template, t, known, k)
                    row = [coeffs, field.sub(value, acc)]
                    if rec is not None:
                        rec.parity(p, t, coeffs, row)
                    touched = self.insert(row)
                    if not touched:
                        if rec is not None:
                            rec.check(row)
                        if row[1]:
                            raise DecodeError("received parity inconsistent with resolved symbols")
                    for qid in touched:
                        if len(rows[qid][0]) == 1:
                            row = rows.pop(qid)
                            u, j = divmod(qid, k)
                            record = known[u]
                            if u not in missing:        # whole, so maybe a fork's too
                                known[u] = record = record[:]
                            if rec is not None:
                                rec.write(qid, t, row, record[j] is None)
                            record[j] = row[1]
                            if None not in record:
                                missing.discard(u)
                                out.append(PacketOutcome(u, True, t - u, tuple(record)))
        finally:
            if rec is not None:
                rec.close()
        if moves is None and missing:
            self.state = _LIVE
            return out
        key = _key(self)
        self.state = nxt = table.index.get(key) or table.state(key)
        if moves is not None and nxt.moves is not None and (rec is None or rec.replayable):
            moves[symbols is None] = (nxt.number, tuple([(ev.t - t, ev.delay) for ev in out]),
                                      rec and rec.plan([rows[p] for p in sorted(rows)]))
            table.recorded += 1
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
        if self.state is not self.table.clean:
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
