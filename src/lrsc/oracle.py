"""Brute-force verification of the recoverability guarantees.

Two layers of ground truth:

* ``verify_scalar`` checks the block-code criterion directly on the parity
  check matrix: for every erasure pattern of full budget, each erased
  coordinate in the first message block must fall outside the span of the
  later erased columns.  No decoder involved.
* ``verify_stream`` drives the real encoder and decoder over a seeded
  random stream and every erasure pattern anchored at mid-horizon times
  (plus an anchor at t=0 to exercise the zero prehistory), asserting the
  anchored packet comes back correct within the deadline.  One clean
  decoder per trial walks forward through the anchors, pushing the coded
  packets since the last, every parity read and checked, and ``walk``
  runs a fork of it down the tree of erased/received flags from the
  erased anchor, forking at each time an erasure is still in budget.  A
  path settles once the anchored packet is recovered or the deadline
  passes, and every pattern that agrees with the settled node up to its
  time takes the node's outcome, the one replaying it alone would give.
  The forks share the decoder's transition table: each (state, flag) move
  is recorded the first time a push meets it, in the first anchor's walk
  or the clean push after it, and every later push replays those plans on
  its own values, so each pattern is still decoded through
  ``Decoder.push`` and its value checked.  The report counts the moves
  recorded and replayed.

Pattern enumeration counts are checked against the closed-form binomial
totals, and each anchor's patterns for distinctness, raising RuntimeError
also under ``python -O``, so a silent enumeration bug cannot pass as success.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

from .codec import Decoder, Encoder
from .matrix import ParityWeights, in_span, stacked_parity_check


@dataclass(frozen=True)
class Failure:
    pattern: tuple
    detail: str


@dataclass
class VerificationReport:
    description: str
    pattern_count: int = 0
    failures: list = dc_field(default_factory=list)
    max_delay: dict = dc_field(default_factory=dict)
    transitions: int = 0        # decoder moves computed and recorded
    replays: int = 0            # pushes that replayed a recorded move

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        line = f"patterns={self.pattern_count} failures={len(self.failures)}"
        for h in sorted(self.max_delay):
            line += f" max_delay[{h}]={self.max_delay[h]}"
        return line


def verify_scalar(weights: ParityWeights) -> VerificationReport:
    """Exhaust every full-budget erasure pattern of the block code and check
    the span criterion for each erased coordinate of the first message
    block."""
    f = weights.tower
    r, a = len(weights.rows), len(weights.rows[0])
    cols = list(zip(*stacked_parity_check(weights)))
    n_len = len(cols)
    report = VerificationReport(description=f"scalar a={a} r={r}")
    count = 0
    for pattern in itertools.combinations(range(n_len), a):
        count += 1
        for i in pattern:
            if i >= r:
                continue
            later = [cols[j] for j in pattern if j > i]
            if in_span(f, cols[i], later):
                report.failures.append(Failure(
                    pattern, f"coordinate {i} lies in the span of later erased columns"))
    if count != math.comb(n_len, a):
        raise RuntimeError(f"enumerated {count} patterns, expected {math.comb(n_len, a)}")
    report.pattern_count = count
    return report


def _random_stream(code, horizon, seed, trial):
    rng = random.Random(1_000_003 * seed + trial)
    order = code.field.order
    k = code.k
    return [tuple(rng.randrange(order) for _ in range(k)) for _ in range(horizon)]


def walk(dec, coded, anchor, end, budget):
    """Walk every path of erased/received flags from the erased anchor to
    `end`, with at most `budget` erasures, on `dec` pushed the clean
    prefix, forking it at each erased branch.  Yields each settled node as
    (erasure times, t, outcome): at t the anchored packet came back as
    outcome = (delay, message), or t is `end` and outcome is None."""
    stack = [(dec, anchor, (anchor,))]
    while stack:
        dec, t, erased = stack.pop()
        while True:
            got = None
            for ev in dec.push(t, None if t == erased[-1] else coded[t]):
                if ev.t == anchor and ev.recovered:
                    got = ev.delay, ev.message
                    break
            if got is not None or t == end:
                yield erased, t, got
                break
            t += 1
            if len(erased) < budget:
                stack.append((dec.fork(), t, erased + (t,)))


def verify_stream(code, budget, deadline, trials=1, seed=0) -> VerificationReport:
    """Exhaust every erasure pattern of at most `budget` erasures inside the
    window [t, t+deadline] containing t, for anchors t across the middle
    third of a 3*(max(tau, deadline)+1) horizon and at t=0, over `trials`
    random message streams.  One ``walk`` per anchor settles every
    pattern there; each pattern still gets its own check, in enumeration
    order.  Each trial's decoder table adds its moves recorded and
    replayed to the report's ``transitions`` and ``replays``."""
    if (any(v.__class__ is not int for v in (budget, deadline, trials, seed))
            or budget < 1 or deadline < 0 or trials < 1):
        raise ValueError(f"need budget >= 1, deadline >= 0, trials >= 1 and a seed, each an int; "
                         f"got {budget!r}, {deadline!r}, {trials!r}, {seed!r}")
    horizon = 3 * (max(code.tau, deadline) + 1)
    anchors = [0] + list(range(horizon // 3, (2 * horizon) // 3))
    per_anchor = sum(math.comb(deadline, s - 1) for s in range(1, budget + 1))
    report = VerificationReport(
        description=f"stream {code.label} budget={budget} deadline={deadline}")
    for trial in range(trials):
        messages = _random_stream(code, horizon, seed, trial)
        enc = Encoder(code)
        coded = [enc.push(m) for m in messages]
        # one clean decoder walks forward through the anchors, and each
        # anchor's walk starts from a fork of it: all share one table
        dec, at = Decoder(code), 0
        for anchor in anchors:
            for t in range(at, anchor):
                dec.push(t, coded[t])
            at, end = anchor, anchor + deadline
            # a node (E, t) stands for E plus any later erasures in (t, end],
            # up to the budget
            expanded = [(erased + extra, got)
                        for erased, t, got in walk(dec.fork(), coded, anchor, end, budget)
                        for size in range(budget - len(erased) + 1)
                        for extra in itertools.combinations(range(t + 1, end + 1), size)]
            outcomes = dict(expanded)
            # every pattern starts at the anchor, ascends, stays inside the
            # window and within the budget, so distinct patterns in the
            # closed-form number are exactly the enumerated set
            if len(outcomes) != per_anchor or len(expanded) != per_anchor:
                raise RuntimeError(f"enumerated {len(expanded)} patterns ({len(outcomes)} "
                                   f"distinct) at anchor {anchor}, expected {per_anchor}")
            # by (size, times), the enumeration order
            for pattern in sorted(sorted(outcomes), key=len):
                got = outcomes[pattern]
                if got is None:
                    report.failures.append(Failure(
                        pattern, f"packet {anchor} not recovered by {end}"))
                elif got[1] != messages[anchor]:
                    report.failures.append(Failure(
                        pattern, f"packet {anchor} recovered with wrong symbols"))
                elif got[0] > report.max_delay.get(len(pattern), -1):
                    report.max_delay[len(pattern)] = got[0]
            report.pattern_count += per_anchor
        report.transitions += dec.table.recorded
        report.replays += dec.table.replayed
    return report
