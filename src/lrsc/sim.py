"""Monte Carlo packet-erasure-channel runs and the loss/delay comparison.

The channel is a pure function of (seed, t): each packet's erasure decision
comes from a splitmix64 mix of the two, so runs are reproducible across
machines and order independent.  Message symbols come from a separate
seeded generator; recoverability inside the guarantee does not depend on
them, so this choice only exercises best-effort paths.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field as dc_field

from .codec import Decoder, Encoder

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
        if not 0 <= self.eps <= 1:
            raise ValueError(f"eps must lie in [0, 1], got {self.eps!r}")
        object.__setattr__(self, "_key", splitmix64(self.seed))
        object.__setattr__(self, "_cut", int(self.eps * 2.0 ** 64))

    def erased(self, t: int) -> bool:
        return splitmix64(self._key ^ t) < self._cut


@dataclass(frozen=True)
class ReplayChannel:
    """Deterministic erasure pattern replay."""
    times: frozenset

    def erased(self, t: int) -> bool:
        return t in self.times


@dataclass
class SimResult:
    code_label: str
    eps: float
    packets: int
    seed: int
    recovered: int
    lost: int
    loss_prob: float
    loss_ci: float              # 95% normal-approximation half width
    mean_delay: float | None            # over all recovered packets
    mean_delay_erased: float | None     # over recovered packets that were erased
    delay_p50: int | None
    delay_p99: int | None
    delay_hist: dict = dc_field(default_factory=dict)
    low_confidence: bool = False


def _percentile(hist, total, frac):
    need = frac * total
    cum = 0
    for d in sorted(hist):
        cum += hist[d]
        if cum >= need:
            return d
    return None


def run_sim(code, channel, packets: int, seed: int = 0) -> SimResult:
    """Drive `packets` random message packets through encoder -> channel ->
    decoder, then tau+1 further steps so every counted packet meets its
    deadline.  A packet counts as lost iff it is not fully recovered by
    t+tau."""
    if packets < 1:
        raise ValueError(f"packets must be at least 1, got {packets}")
    enc = Encoder(code)
    dec = Decoder(code)
    rng = random.Random(seed)
    order = code.field.order
    k = code.k
    hist = Counter()
    lost = 0
    erased_fn = channel.erased
    for t in range(packets + code.tau + 1):
        msg = tuple(rng.randrange(order) for _ in range(k))
        pkt = enc.push(msg)
        for ev in dec.push(t, None if erased_fn(t) else pkt):
            if ev.t < packets:
                if ev.recovered:
                    hist[ev.delay] += 1
                else:
                    lost += 1
    recovered = sum(hist.values())
    if recovered + lost != packets:
        raise RuntimeError(f"{recovered} recovered + {lost} lost != {packets} packets")
    p = lost / packets
    ci = 1.96 * (p * (1.0 - p) / packets) ** 0.5
    mean = sum(d * c for d, c in hist.items()) / recovered if recovered else None
    n_erased_rec = sum(c for d, c in hist.items() if d > 0)
    mean_er = (sum(d * c for d, c in hist.items() if d > 0) / n_erased_rec) if n_erased_rec else None
    return SimResult(
        code_label=code.label,
        eps=getattr(channel, "eps", -1.0),
        packets=packets,
        seed=seed,
        recovered=recovered,
        lost=lost,
        loss_prob=p,
        loss_ci=ci,
        mean_delay=mean,
        mean_delay_erased=mean_er,
        delay_p50=_percentile(hist, recovered, 0.50),
        delay_p99=_percentile(hist, recovered, 0.99),
        delay_hist=dict(sorted(hist.items())),
        low_confidence=lost < 20,
    )


def sweep(code, eps_list, packets: int, seed: int = 0):
    """One run per eps, with channel and message seeds derived from (seed,
    index) so a second sweep with the same seed pairs up packet for packet."""
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
    explained = set()
    for t in sorted(lost_times):
        over = False
        for w0 in range(t - tau, t + 1):
            cnt = sum(1 for e in erased if w0 <= e <= w0 + tau)
            if cnt > a:
                over = True
                break
        if over or any(t - tau <= t2 < t for t2 in explained):
            explained.add(t)
    return sorted(set(lost_times) - explained)
