"""Parameter derivation and rate accounting for (a, tau, r) stream codes.

a is the erasure budget per sliding window, tau the recovery deadline, and
r < tau the single-erasure deadline.  Three regimes fall out of comparing
tau+1 with a(r+1): exact (equal), long (tau+1 larger, same encoder with a
wider deadline), and short (tau+1 smaller, which splits the message packet
into u full diagonal blocks plus a width-v remainder and uses ell = a - u
extra parity symbols).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gf import smallest_prime_power_at_least, tower_orders


@dataclass(frozen=True)
class CodeParams:
    a: int
    tau: int
    r: int
    regime: str                 # "exact" | "long" | "short"
    k: int
    n: int
    q: int
    field_order: int            # q ** (2 ** (a - 2))
    rate: Fraction
    u: int | None = None
    v: int | None = None
    ell: int | None = None


def rate_bound(a: int, tau: int, r: int) -> Fraction:
    """Best achievable rate: min((tau+1-a)/(tau+1), r/(r+1))."""
    return min(Fraction(tau + 1 - a, tau + 1), Fraction(r, r + 1))


def derive_params(a: int, tau: int, r: int, q_override: int | None = None) -> CodeParams:
    if any(v.__class__ is not int for v in (a, tau, r)):
        raise ValueError(f"a, tau and r must be ints, got a={a!r}, tau={tau!r}, r={r!r}")
    if a <= 1:
        raise ValueError(f"a must exceed 1, got a={a}")
    if a > tau:
        raise ValueError(f"a must not exceed tau, got a={a}, tau={tau}")
    if r < 1:
        raise ValueError(f"r must be at least 1, got r={r}")
    if r >= tau:
        raise ValueError(f"r must be less than tau, got r={r}, tau={tau}")

    q_min = r + a - 1
    q = smallest_prime_power_at_least(q_min) if q_override is None else q_override
    field_order = tower_orders(q, a - 1)[-1]
    if q < q_min:
        raise ValueError(f"q={q} is below the required minimum {q_min}")

    window = a * (r + 1)
    if tau + 1 >= window:
        regime, k, n = "exact" if tau + 1 == window else "long", r, r + 1
        u = v = ell = None
    else:
        regime, k, n = "short", tau + 1 - a, tau + 1
        u, v = divmod(k, r)
        ell = a - u
        if not (0 <= u < a and 0 <= v < r and ell >= 1):
            raise RuntimeError(f"short-regime split out of range: u={u}, v={v}, ell={ell}")

    rate = Fraction(k, n)
    if rate != rate_bound(a, tau, r):
        raise RuntimeError(f"rate {rate} misses the bound {rate_bound(a, tau, r)}")
    return CodeParams(a=a, tau=tau, r=r, regime=regime, k=k, n=n, q=q,
                      field_order=field_order, rate=rate, u=u, v=v, ell=ell)
