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

from .gf import check_base_order, is_prime_power, smallest_prime_power_at_least


_FIELD_ORDER_MAX = 1 << 32


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
    if a <= 1:
        raise ValueError(f"a must exceed 1, got a={a}")
    if a > tau:
        raise ValueError(f"a must not exceed tau, got a={a}, tau={tau}")
    if r < 1:
        raise ValueError(f"r must be at least 1, got r={r}")
    if r >= tau:
        raise ValueError(f"r must be less than tau, got r={r}, tau={tau}")

    q_min = r + a - 1
    if q_override is not None:
        if is_prime_power(check_base_order(q_override)) is None:
            raise ValueError(f"q={q_override} is not a prime power")
        if q_override < q_min:
            raise ValueError(f"q={q_override} is below the required minimum {q_min}")
        q = q_override
    else:
        q = smallest_prime_power_at_least(check_base_order(max(2, q_min)))
    # for a > 7 the order is at least 2^64: skip a power too large to compute
    if a > 7 or q ** (1 << (a - 2)) > _FIELD_ORDER_MAX:
        raise ValueError(f"field order {q}^{1 << (a - 2)} exceeds the supported desk scale 2^32")
    field_order = q ** (1 << (a - 2))

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


def small_field_sc2(tau: int, q_override: int | None = None) -> CodeParams:
    """Two-erasure stream code for a given tau with the locality deadline
    r = ceil((tau-1)/2), which keeps the field requirement at
    q >= ceil((tau+1)/2) instead of >= tau."""
    if tau <= 2:
        raise ValueError(f"tau must exceed 2, got tau={tau}")
    return derive_params(2, tau, tau // 2, q_override)
