"""Brute-force verification of the recoverability guarantees.

Two layers of ground truth:

* ``verify_scalar`` checks the block-code criterion directly on the parity
  check matrix: for every erasure pattern of full budget, each erased
  coordinate in the first message block must fall outside the span of the
  later erased columns.  No decoder involved.
* ``verify_stream`` drives the real encoder and decoder over a seeded
  random stream and every erasure pattern anchored at mid-horizon times
  (plus an anchor at t=0 to exercise the zero prehistory), asserting the
  anchored packet comes back correct within the deadline.  Each anchor's
  decoder resumes on the clean prefix before it, the state pushing it would
  leave, and walks the tree of erased/received flags from the erased anchor,
  forking at each time an erasure is still in budget.  A path stops once
  the anchored packet is recovered or the deadline passes, and each pattern
  takes its outcome from the settled node on its path, the same outcome
  replaying that pattern alone would give.

Pattern enumeration counts are checked against the closed-form binomial
totals, raising RuntimeError also under ``python -O``, so a silent
enumeration bug cannot pass as success.
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


def _settle_anchor(code, messages, coded, anchor, budget, deadline):
    """Walk every path of erased/received flags from the erased anchor, with
    at most `budget` erasures, on one decoder resumed on the clean prefix and
    forked at each erased branch.  Returns {erasure times: (t, outcome)} for
    the settled nodes: at t the anchored packet came back as outcome =
    (delay, message), or t is anchor+deadline and outcome is None."""
    end = anchor + deadline
    dec = Decoder(code)
    dec.resume(messages[:anchor])
    settled = {}
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
                settled[erased] = t, got
                break
            t += 1
            if len(erased) < budget:
                stack.append((dec.fork(), t, erased + (t,)))
    return settled


def _path_outcome(settled, pattern):
    """The outcome of the settled node on the pattern's path: the node whose
    erasure times are the pattern's up to the node's time."""
    for i in range(1, len(pattern) + 1):
        node = settled.get(pattern[:i])
        if node is not None and (i == len(pattern) or node[0] < pattern[i]):
            return node[1]
    raise RuntimeError(f"no settled node on the path of pattern {pattern}")


def verify_stream(code, budget, deadline, trials=1, seed=0) -> VerificationReport:
    """Exhaust every erasure pattern of at most `budget` erasures inside the
    window [t, t+deadline] containing t, for anchors t across the middle
    third of a 3*(max(tau, deadline)+1) horizon and at t=0, over `trials`
    random message streams.  One decoder walk per anchor settles every
    pattern there; each pattern still gets its own check, in enumeration
    order."""
    if (any(v.__class__ is not int for v in (budget, deadline, trials, seed))
            or budget < 1 or deadline < 0 or trials < 1):
        raise ValueError(f"need budget >= 1, deadline >= 0, trials >= 1 and a seed, each an int; "
                         f"got {budget!r}, {deadline!r}, {trials!r}, {seed!r}")
    horizon = 3 * (max(code.tau, deadline) + 1)
    anchors = [0] + list(range(horizon // 3, (2 * horizon) // 3))
    per_anchor = sum(math.comb(deadline, s - 1) for s in range(1, budget + 1))
    report = VerificationReport(
        description=f"stream {code.label} budget={budget} deadline={deadline}")
    count = 0
    for trial in range(trials):
        messages = _random_stream(code, horizon, seed, trial)
        enc = Encoder(code)
        coded = [enc.push(m) for m in messages]
        for anchor in anchors:
            settled = _settle_anchor(code, messages, coded, anchor, budget, deadline)
            enumerated = 0
            others = range(anchor + 1, anchor + deadline + 1)
            for size in range(1, budget + 1):
                for extra in itertools.combinations(others, size - 1):
                    enumerated += 1
                    pattern = (anchor,) + extra
                    got = _path_outcome(settled, pattern)
                    if got is None:
                        report.failures.append(Failure(
                            pattern, f"packet {anchor} not recovered by {anchor + deadline}"))
                        continue
                    delay, message = got
                    if message != messages[anchor]:
                        report.failures.append(Failure(
                            pattern, f"packet {anchor} recovered with wrong symbols"))
                        continue
                    h = len(pattern)
                    if delay > report.max_delay.get(h, -1):
                        report.max_delay[h] = delay
            if enumerated != per_anchor:
                raise RuntimeError(f"enumerated {enumerated} patterns at anchor {anchor}, "
                                   f"expected {per_anchor}")
            count += enumerated
    report.pattern_count = count
    return report
