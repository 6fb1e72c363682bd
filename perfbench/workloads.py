"""Workload definitions for the lrsc benchmark.

A workload is a fixed set of codes plus two kinds of work on them:

* sim points: one ``run_sim`` call per (code, eps, variant) at a small fixed
  packet count, with channel and message seeds derived from the workload
  seed by ``sweep``'s rule over the eps list repeated ``variants`` times, so
  every code sees the same channel realizations.  Many short calls on
  distinct seeds keep each timed unit short while a pass still covers
  thousands of packets per point;
* oracle suites: ``verify_scalar`` / ``verify_stream`` calls.

``primary`` names the kind of work the timed run measures.  The other kind
is a small probe that only the traced run executes, so that every layer
metric is measured on every workload (see NOTES.md for why each workload
exists and which metrics it is meant to move).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from lrsc.codec import LrscCode, MdsDeCode
from lrsc.params import derive_params
from lrsc.sim import splitmix64


@dataclass(frozen=True)
class CodeSpec:
    kind: str               # "lrsc" | "mds"
    a: int
    tau: int
    r: int | None = None

    @property
    def label(self):
        if self.kind == "mds":
            return f"mds-de-{self.a}-{self.tau}"
        return f"lrsc-{self.a}-{self.tau}-{self.r}"

    def build(self):
        if self.kind == "mds":
            return MdsDeCode(self.a, self.tau)
        return LrscCode(derive_params(self.a, self.tau, self.r))


@dataclass(frozen=True)
class Suite:
    kind: str               # "scalar" | "stream"
    code: int               # index into Workload.codes
    budget: int = 0
    deadline: int = 0
    tag: str = ""

    def expected_patterns(self, spec: CodeSpec) -> int:
        """Closed-form pattern total the oracle must enumerate."""
        if self.kind == "scalar":
            return math.comb(spec.a * (spec.r + 1), spec.a)
        span = max(spec.tau, self.deadline)
        anchors = 1 + (span + 1)        # t=0 plus the middle third of 3*(span+1)
        return anchors * sum(math.comb(self.deadline, s - 1) for s in range(1, self.budget + 1))


@dataclass(frozen=True)
class Point:
    code: int
    eps: float
    chan_seed: int
    msg_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str            # "sim" | "oracle"
    codes: tuple
    sim_codes: tuple        # indices of codes simulated at every eps
    eps: tuple
    variants: int           # channel realizations per (code, eps)
    packets: int            # T of every run_sim call
    suites: tuple

    def points(self, seed: int):
        out = []
        for i, eps in enumerate(self.eps * self.variants):
            chan, msg = splitmix64(seed ^ (2 * i + 1)), splitmix64(seed ^ (2 * i + 2))
            out.extend(Point(c, eps, chan, msg) for c in self.sim_codes)
        return out

    def sizes(self):
        return {
            "codes": [c.label for c in self.codes],
            "sim_points": len(self.sim_codes) * len(self.eps) * self.variants,
            "eps": list(self.eps),
            "variants": self.variants,
            "packets_per_run_sim": self.packets,
            "suites": len(self.suites),
            "suite_patterns": sum(s.expected_patterns(self.codes[s.code]) for s in self.suites),
        }


def _probe_suites(codes):
    """Budget and locality suites, plus the scalar check for exact-regime
    LRSCs: the oracle probe of a simulation workload."""
    suites = []
    for i, c in enumerate(codes):
        if c.kind == "lrsc" and c.tau + 1 == c.a * (c.r + 1):
            suites.append(Suite("scalar", i, tag="scalar"))
        suites.append(Suite("stream", i, c.a, c.tau, "budget"))
        if c.kind == "lrsc":
            suites.append(Suite("stream", i, 1, c.r, "locality"))
    return tuple(suites)


# the suite list of scripts/verify_all.py
EXACT = [(a, a * (r + 1) - 1, r) for a in (2, 3, 4) for r in (1, 2, 3)]
SHORT = [(2, 4, 2), (3, 7, 2), (3, 8, 3), (4, 9, 3)]
GRACEFUL = [(3, 2), (4, 1), (4, 2)]


def _battery(exact, short, graceful):
    """Codes and suites in verify_all.py order; like that script, each group
    constructs its own code, so the graceful codes are built twice."""
    codes, suites = [], []
    for a, tau, r in exact:
        i = len(codes)
        codes.append(CodeSpec("lrsc", a, tau, r))
        suites += [Suite("scalar", i, tag="scalar"), Suite("stream", i, a, tau, "budget"),
                   Suite("stream", i, 1, r, "locality")]
    for a, tau, r in short:
        i = len(codes)
        codes.append(CodeSpec("lrsc", a, tau, r))
        suites += [Suite("stream", i, a, tau, "budget"), Suite("stream", i, 1, r, "locality")]
    for a, r in graceful:
        i = len(codes)
        codes.append(CodeSpec("lrsc", a, a * (r + 1) - 1, r))
        suites += [Suite("stream", i, h, h * (r + 1) - 1, f"h={h}") for h in range(1, a + 1)]
    return tuple(codes), tuple(suites), len(exact) + len(short)


def _sim(name, codes, eps, variants, packets):
    codes = tuple(codes)
    return Workload(name, "sim", codes, tuple(range(len(codes))), tuple(eps), variants,
                    packets, _probe_suites(codes))


def _verify(exact, short, graceful, packets):
    codes, suites, distinct = _battery(exact, short, graceful)
    # sim probe: every distinct battery code once at eps 0.1
    return Workload("verify-battery", "oracle", codes, tuple(range(distinct)), (0.1,), 1,
                    packets, suites)


WORKLOADS = {
    "sim-paper": _sim("sim-paper", [CodeSpec("lrsc", 2, 5, 2), CodeSpec("mds", 2, 5)],
                      (0.01, 0.05, 0.1), 4, 500),
    "sim-stress": _sim("sim-stress", [CodeSpec("lrsc", 4, 11, 2), CodeSpec("lrsc", 3, 7, 2)],
                       (0.1, 0.2), 8, 250),
    "verify-battery": _verify(EXACT, SHORT, GRACEFUL, 500),
}


def tiny(name: str) -> Workload:
    """The same workload shrunk to run in about a second, for smoke tests."""
    w = WORKLOADS[name]
    if w.primary == "oracle":
        return _verify(EXACT[:2], SHORT[:1], [], 100)
    return replace(w, variants=1, packets=200, suites=tuple(s for s in w.suites if s.budget <= 3))
