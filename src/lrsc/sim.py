"""Monte Carlo packet-erasure-channel runs and the loss/delay comparison.

The channel is a pure function of (seed, t): each packet's erasure decision
comes from a splitmix64 mix of the two, so runs are reproducible across
machines and order independent.  The codes are linear and the decoder's
steps depend only on which packets are erased, never on symbol values, so
a run stands for the all-zero stream and draws no messages.  On that stream
the decoder is a finite automaton over erasure flags: a run walks a bare
transition table of decoder states (``codec.Transitions``), built for the
call with no decoder, and where the table lacks a move it computes the
move from the state alone, with no plan on values.  While nothing is
unresolved, a received packet settles at delay 0, so a run counts each
clean stretch straight from the channel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

# Decoder, Encoder: unused, but perfbench's traced run rebinds them
from .codec import Decoder, Encoder, Transitions

_M64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class PecChannel:
    """Memoryless erasure channel: packet t is erased iff the (seed, t) mix
    falls below eps."""
    eps: float
    seed: int = 0

    def __post_init__(self):
        if self.eps.__class__ is bool or not 0 <= self.eps <= 1:
            raise ValueError(f"eps must lie in [0, 1], got {self.eps!r}")
        if self.seed.__class__ is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        object.__setattr__(self, "_key", splitmix64(self.seed))
        object.__setattr__(self, "_cut", int(self.eps * 2.0 ** 64))

    def erased(self, t: int) -> bool:
        # splitmix64(key ^ t), written out: the walk calls this once a packet
        z = ((self._key ^ t) + 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31) < self._cut


@dataclass(slots=True)
class SimResult:
    """One run's loss count and delay histogram (delay -> recovered packets,
    delays ascending).  Each statistic derives from them when read, which
    keeps small the many results that a long sweep or a benchmark holds."""
    code_label: str
    eps: float
    packets: int
    seed: int
    lost: int
    delay_hist: dict

    recovered = property(lambda self: self.packets - self.lost)
    loss_prob = property(lambda self: self.lost / self.packets)
    # 95% normal-approximation half width
    loss_ci = property(lambda self: 1.96 * (self.loss_prob * (1.0 - self.loss_prob) / self.packets) ** 0.5)
    # over all recovered packets, and over those that were erased; None without any
    mean_delay = property(lambda self: _mean(self.delay_hist.items()))
    mean_delay_erased = property(lambda self: _mean([(d, c) for d, c in self.delay_hist.items() if d > 0]))
    delay_p50 = property(lambda self: _percentile(self.delay_hist, self.recovered, 0.50))
    delay_p99 = property(lambda self: _percentile(self.delay_hist, self.recovered, 0.99))
    low_confidence = property(lambda self: self.lost < 20)


def _mean(pairs):
    n = sum(c for _, c in pairs)
    return sum(d * c for d, c in pairs) / n if n else None


def _percentile(hist, total, frac):
    need = frac * total
    cum = 0
    for d in sorted(hist):
        cum += hist[d]
        if cum >= need:
            return d
    return None


def _walk(code, erased, end):
    """Settle the all-zero stream of times 0..end-1 over the channel's
    ``erased``.  Yields (t, run, outs) per step: the `run` packets before t
    were received while nothing was unresolved and settle at delay 0, then
    the push at t settles the packets t + offset for each (offset, delay or
    None for a loss) in outs.  The last step may have t = end and no push.

    The steps walk a bare transition table, built here with no decoder,
    from state to state by their recorded moves, reading only a move's next
    state and outcomes.  A missing move is computed from its state alone
    (``Transitions.move``), with no plan, and recorded where the table
    stores both states; past its cap, the walk steps through transient
    states the same way."""
    table = Transitions(code)
    clean, states, move = table.clean, table.states, table.move
    state, t = clean, 0
    while t < end:
        run = 0
        if state is clean:
            u = t
            while u < end and not erased(u):
                u += 1
            run, t = u - t, u
            if t == end:
                yield t, run, ()
                return
            flag = True
        else:
            flag = erased(t)
        step = state.moves and state.moves[flag]
        if step:
            state, outs = states[step[0]], step[1]
        else:
            state, outs, _ = move(state, flag, False)
        yield t, run, outs
        t += 1


def run_sim(code, channel, packets: int, seed: int = 0) -> SimResult:
    """Drive `packets` all-zero packets through channel -> decoder, then
    tau+1 further steps so every counted packet meets its deadline.  A
    packet counts as lost iff it is not fully recovered by t+tau.  A channel
    is any object with ``eps``, which the result reports, and ``erased(t)``.
    `seed` changes no outcome; it is only reported.

    The run sums the steps of ``_walk``: each clean stretch is counted
    straight from the channel scan, and a move is computed only where the
    walk's table of decoder states, built for this call, lacks it."""
    if packets.__class__ is not int or packets < 1:
        raise ValueError(f"packets must be an int of at least 1, got {packets!r}")
    if seed.__class__ is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    hist = Counter()
    lost = 0
    for t, run, outs in _walk(code, channel.erased, packets + code.tau + 1):
        if run and t - run < packets:
            hist[0] += min(t, packets) - t + run
        for off, delay in outs:
            if t + off < packets:
                if delay is None:
                    lost += 1
                else:
                    hist[delay] += 1
    recovered = sum(hist.values())
    if recovered + lost != packets:
        raise RuntimeError(f"{recovered} recovered + {lost} lost != {packets} packets")
    return SimResult(code.label, channel.eps, packets, seed, lost,
                     dict(sorted(hist.items())))


def sweep(code, eps_list, packets: int, seed: int = 0):
    """One run per eps on a channel seed derived from (seed, index), so sweeps
    with equal seeds pair up packet for packet; a second derived seed is only reported."""
    if seed.__class__ is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    return [
        run_sim(code, PecChannel(eps, splitmix64(seed ^ (2 * i + 1))), packets,
                splitmix64(seed ^ (2 * i + 2)))
        for i, eps in enumerate(eps_list)
    ]


CSV_HEADER = "epsilon,code,T,seed,loss_prob,loss_ci,mean_delay,delay_p50,delay_p99"


def csv_rows(results):
    yield CSV_HEADER
    for r in results:
        mean = f"{r.mean_delay:.6f}" if r.mean_delay is not None else ""
        p50 = "" if r.delay_p50 is None else str(r.delay_p50)
        p99 = "" if r.delay_p99 is None else str(r.delay_p99)
        yield (f"{r.eps},{r.code_label},{r.packets},{r.seed},"
               f"{r.loss_prob:.8f},{r.loss_ci:.8f},{mean},{p50},{p99}")


def hist_rows(results):
    """Long-format delay,count histogram; one commented section per run."""
    yield "delay,count"
    for r in results:
        yield f"# epsilon={r.eps} code={r.code_label} T={r.packets} seed={r.seed}"
        for d, c in r.delay_hist.items():
            yield f"{d},{c}"


def explain_losses(erased_times, lost_times, a, tau):
    """Post-hoc scan: a loss is explained by more than `a` erasures in some
    length tau+1 window covering it, or by depending on an earlier explained
    loss within tau.  Returns the losses no such scan explains."""
    erased = sorted(erased_times)
    unexplained, last = [], float("-inf")       # last: the latest explained loss
    for t in sorted(set(lost_times)):
        if t - last <= tau or any(bisect_right(erased, w0 + tau) - bisect_left(erased, w0) > a
                                  for w0 in range(t - tau, t + 1)):
            last = t
        else:
            unexplained.append(t)
    return unexplained
