"""Stream codes, the systematic encoder and the deadline-aware
sliding-window decoder.

Every parity symbol is a fixed linear combination of message symbols, held
once per code as a time-invariant coefficient template.  One parity route,
``parity_inputs``, turns the templates into the symbols a parity reads and
the sums over them: the encoder evaluates those sums and every received
push of the decoder checks them.  The closed-form diagonal expressions of
the constructions live in the tests as the independent reference.

The decoder keeps one record per live packet, its k message symbols with
None where unresolved, beside one global linear system over the unresolved
symbols.  A packet is recovered the moment the system pins its last
unresolved symbol, which serves the single-erasure deadline, the
full-budget deadline, and best-effort recovery past the guarantee.

The code is linear, so no coefficient of the system, and no move of the
decoder, depends on a symbol value.  The coefficients are the decoder's
state in a transition table (``Transitions``), which a decoder built by
``Decoder(code)`` starts and shares with every fork of itself; the table
lives as long as they do, one ``verify_stream`` call, and code objects stay
immutable.  ``run_sim`` walks a bare table of its own, with no decoder.
The table computes each move, the push of a received or an erased packet
from a state, once from the state's ids and rows alone
(``Transitions.move``), reducing them in a ``matrix.Echelon`` system of
the move's own, the reduced-echelon system that ``rank`` and ``in_span``
also run on: the next state, the packets the push settles, and a plan on
values, made of the rhs row operations, the zero checks and the writes.
The decoder holds only values, and they only ever replay: every push, by
any fork, checks its packet, reads every term of each parity template and
runs the plan, with no coefficient dict.  A term before time 0 reads 0, as
does an unresolved symbol, so one plan holds at any time.
"""

from __future__ import annotations

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
    """A received parity contradicts the resolved symbols."""


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


def parity_inputs(code):
    """What a parity check reads, the same at every time t: the symbols
    (delta, j) of every template term, each message t - delta's symbol j,
    or 0 before time 0; and the sums (``dots``) that give each parity p
    its input, its value (slot p) less its terms (slots n-k on).  A
    received push checks these inputs; the encoder, reading each parity as
    0, negates them."""
    field, reads, sums = code.field, [], []
    for p, tp in enumerate(code.templates):
        first = code.n - code.k + len(reads)
        reads += [(d, j) for j, d, _ in tp]
        sums.append(((p, *range(first, first + len(tp))),
                     (field.prep(1), *[field.prep(field.neg(c)) for _, _, c in tp])))
    return tuple(reads), tuple(sums)


class Encoder:
    """Systematic streaming encoder; retains the last tau+1 message packets."""

    def __init__(self, code):
        self.code = code
        self.history = {}
        self.next_t = 0
        self._inputs = parity_inputs(code)

    def push(self, message) -> tuple:
        """The next coded packet: its n symbols, k message then n-k parity."""
        code, field = self.code, self.code.field
        msg = tuple(message)
        field.check(msg, code.k)
        t = self.next_t
        self.next_t += 1
        history = self.history
        history[t] = msg
        reads, sums = self._inputs
        # a term before time 0 reads 0
        xs = [0] * (code.n - code.k) + [history[t - d][j] if d <= t else 0 for d, j in reads]
        history.pop(t - code.tau - 1, None)
        return msg + tuple(map(field.neg, field.dots(sums, xs)))


# The most states one transition table stores.  Past it, a move into a
# state the table does not hold leads to a transient state, which is not
# stored: a decoder and ``sim._walk`` step through it as through a stored
# one, computing its moves afresh.
_STATE_CAP = 2048


class _State:
    """A decoder's coefficient state: its unresolved ids and its rows, each
    row a tuple of (id, coeff) sorted by id, its pivot first, every id
    shifted by -next_t*k.  A stored state has its ``number`` in its table,
    and ``moves``: its move on a received and on an erased packet, each
    None until recorded; a transient state has neither.  A move is (the
    next state's number, outs, plan): outs lists the packets the push
    settles as (offset from the push time, delay or None for a loss), and
    plan is the push on values (``Transitions.move``): every move in a
    decoder's table has one, and every move in the bare table that
    ``sim._walk`` walks has None.  Moves name states by number, so a table
    holds no reference cycle and goes with its last reader."""

    __slots__ = ("ids", "rows", "number", "moves")

    def __init__(self, key, number):
        self.ids, self.rows = key
        self.number = number
        self.moves = None if number is None else [None, None]


class Transitions:
    """A transition table of decoder states: the states met, by key and by
    number, each with its recorded moves.  A decoder shares its table with
    its forks, and records there only moves with a plan; ``sim._walk``
    walks a bare table of its own, with no plans.  The table computes each
    move (``move``), and counts the moves it recorded and the pushes that
    replayed one."""

    def __init__(self, code):
        self.code = code
        self.index, self.states = {}, []
        self.clean = self.state(((), ()))
        # each parity template as (id relative to the push time, coeff) terms
        self.terms = tuple(tuple([(j - d * code.k, c) for j, d, c in tp]) for tp in code.templates)
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

    @functools.cached_property
    def inputs(self):
        """What a received push reads for its parities (``parity_inputs``),
        where an unresolved symbol's None reads as 0."""
        return parity_inputs(self.code)

    def move(self, state, erased, plans):
        """The move of a push from `state` of a packet erased or not, from
        the state's ids and rows alone, with no values: (the next state,
        outs, plan or None), recorded where the table stores both states.
        Ids are relative to the push time t.  The push retires packet
        t-tau-1; it adds the k ids of an erased packet, or else inserts each
        parity's row over the ids unresolved at its start, then resolves
        every row left with one id.  The kept rows are the ``rows`` of a
        fresh ``Echelon`` of the move's own, which each parity's row is
        inserted into, with the slot of each row's rhs in row[2].

        With `plans` the move gets its plan on values in slots: the rhs of
        the state's rows, then one input per parity (``inputs``).  The
        system's two row kernels record each row operation they make; the
        scaling of a row to 1 at its pivot runs in place, in the row's own
        slot.  A plan is (ops, rows, checks, writes): the row operations
        (``run_ops``); the slots of the next state's rhs values; those of
        values that must be 0; and (offset, j, slot) per symbol resolved."""
        code, srows = self.code, state.rows
        k, tau = code.k, code.tau
        cut = -tau * k                      # the retired packet's ids lie below
        ids, outs, kept = state.ids, [], range(len(srows))
        if ids and ids[0] < cut:
            # exact: each id of the retired packet is the smallest live id
            # (see Echelon), and no later parity reads it; a row's pivot is
            # its smallest id, so only the retired rows hold retired ids
            outs.append((-tau - 1, None))
            ids = [i for i in ids if i >= cut]
            kept = [s for s in kept if srows[s][0][0] >= cut]
        if erased:
            ids = [*ids, *range(k)]
            rows = tuple([tuple([(i - k, c) for i, c in srows[s]]) for s in kept])
            plan = ((), tuple(kept), (), ()) if plans else None
        else:
            outs.append((0, 0))
            ech = Echelon(code.field)
            ech.rows = system = {srows[s][0][0]: [dict(srows[s]), 0, s] for s in kept}
            live, base, ops, checks = set(ids), len(srows), [], []
            if plans:
                prep, neg = code.field.prep, code.field.neg
                row_sub, row_scale = ech._row_sub, ech._row_scale

                def sub(row, f, pivot):
                    row_sub(row, f, pivot)
                    ops.append((row[2], prep(neg(f)), pivot[2], True))

                def scale(row, s):
                    # in place on the values: the row keeps its slot
                    new = row_scale(row, s)
                    new.append(row[2])
                    ops.append((row[2], prep(s), row[2], False))
                    return new

                ech._row_sub, ech._row_scale = sub, scale
            for p, terms in enumerate(self.terms):
                if not ech.insert([{i: c for i, c in terms if i in live}, 0, base + p]):
                    checks.append(base + p)
            resolved = sorted([p for p, row in system.items() if len(row[0]) == 1])
            singles = [system.pop(p) for p in resolved]
            if resolved:
                live.difference_update(resolved)
                left = {i // k for i in live}
                outs += [(u, -u) for u in sorted({p // k for p in resolved}) if u not in left]
            ids = sorted(live)
            order = sorted(system)
            rows = tuple([tuple(sorted([(i - k, c) for i, c in system[p][0].items()])) for p in order])
            plan = (tuple(ops), tuple([system[p][2] for p in order]), tuple(checks),
                    tuple([(*divmod(p, k), row[2]) for p, row in zip(resolved, singles)])) if plans else None
        nxt = self.state((tuple([i - k for i in ids]), rows))
        outs = tuple(outs)
        if state.moves is not None and nxt.moves is not None:
            state.moves[erased] = (nxt.number, outs, plan)
            self.recorded += 1
        return nxt, outs, plan


class Decoder:
    """Sliding-window decoder over one packet stream.

    Push each coded packet, the tuple of its n symbols as ``Encoder.push``
    returns it (or None for an erasure), in time order starting at 0: a
    push is the one way in.  Each push returns the packets whose fate was
    settled by it: a recovered outcome the moment the record ``known[t]``
    holds all k message symbols, or a lost outcome once time moves past the
    t+tau deadline.  The window is the last tau+1 packets, as far back as a
    parity reaches: the push at t retires packet t-tau-1, reporting it lost
    if it is unresolved, and drops its record and its unresolved symbols'
    rows.

    Every received packet's parities are read, and so checked.  A push that
    raises, a ``DecodeError`` included, leaves the decoder as it was.

    The system's coefficients are ``state``, a state of the decoder's
    ``table``; the decoder holds only values, its records and the rhs of
    each of the state's rows.  A push takes the move its table recorded
    for (state, flag), or else has the table compute it
    (``Transitions.move``), and replays the move's plan on the values (see
    the module notes).  ``rows`` and ``unknowns`` are views of the state.
    """

    def __init__(self, code):
        self.code = code
        self.k = code.k
        self.n = code.n
        self.tau = code.tau
        self.next_t = 0
        self.known = {}          # t -> list of k symbols, None where unresolved
        self.table = Transitions(code)
        self.state = self.table.clean
        self._rhs = []           # the rhs of the state's rows, in its order
        self._dots, self._run_ops = code.field.dots, code.field.run_ops

    @property
    def rows(self):
        """pivot id t*k + j -> [coeff dict, rhs]: the system, built from the
        state and the values."""
        base = self.next_t * self.k
        return {base + row[0][0]: [{base + i: c for i, c in row}, v]
                for row, v in zip(self.state.rows, self._rhs)}

    @property
    def unknowns(self):
        """The unresolved symbols (t, j)."""
        return {divmod(self.next_t * self.k + i, self.k) for i in self.state.ids}

    def fork(self):
        """An independent decoder in the same state; keeps the class and
        shares the table, and the records that are whole, which no push
        changes."""
        c = object.__new__(type(self))
        c.__dict__.update(self.__dict__)
        c.known = known = self.known.copy()
        for t in {self.next_t + i // self.k for i in self.state.ids}:
            known[t] = known[t][:]
        return c

    def push(self, t, symbols) -> list[PacketOutcome]:
        if t != self.next_t or t.__class__ is not int:
            raise ValueError(f"packets must be pushed in time order as ints; "
                             f"expected t={self.next_t}, got t={t!r}")
        if symbols is not None:
            self.code.field.check(symbols, self.n)
        state, erased = self.state, symbols is None
        move = state.moves and state.moves[erased]
        if move:
            self.table.replayed += 1
            return self._replay(t, symbols, self.table.states[move[0]], move[1], move[2])
        return self._replay(t, symbols, *self.table.move(state, erased, True))

    def _replay(self, t, symbols, nxt, outs, plan):
        """Push by a move into state `nxt`, on the values alone.  The plan
        runs and its checks pass before the decoder changes: a parity reads
        no record of time t, its delta being at least 1, nor of t-tau-1."""
        ops, rows, checks, writes = plan
        k, known = self.k, self.known
        x = self._rhs
        if symbols is None:
            record = [None] * k
        else:
            msg = tuple(symbols[:k])
            record = list(msg)
            reads, sums = self.table.inputs
            got = list(symbols[k:]) + [known[t - d][j] if t >= d else 0 for d, j in reads]
            x = x + self._dots(sums, got)
            if ops:
                self._run_ops(ops, x)
            for i in checks:
                if x[i]:
                    raise DecodeError("received parity inconsistent with resolved symbols")
        self.next_t = t + 1
        known.pop(t - self.tau - 1, None)
        known[t] = record
        for off, j, i in writes:
            known[t + off][j] = x[i]
        self._rhs = [x[i] for i in rows]
        self.state = nxt
        out = []
        for off, delay in outs:
            u = t + off
            if delay is None:
                out.append(PacketOutcome(u, False))
            elif off:
                out.append(PacketOutcome(u, True, delay, tuple(known[u])))
            else:
                out.append(PacketOutcome(t, True, 0, msg))
        return out
