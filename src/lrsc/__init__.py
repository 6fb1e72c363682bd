"""Locally recoverable streaming codes for packet-erasure recovery."""

from .gf import TowerField, make_tower, is_prime_power, smallest_prime_power_at_least, tower_orders
from .params import CodeParams, derive_params, rate_bound
from .codec import DecodeError, Decoder, Encoder, LrscCode, MdsDeCode, PacketOutcome, make_lrsc
from .oracle import VerificationReport, verify_scalar, verify_stream
from .sim import PecChannel, SimResult, run_sim, sweep

__version__ = "0.1.0"

__all__ = [
    "TowerField", "make_tower", "is_prime_power", "smallest_prime_power_at_least", "tower_orders",
    "CodeParams", "derive_params", "rate_bound",
    "DecodeError", "Decoder", "Encoder", "LrscCode", "MdsDeCode", "PacketOutcome", "make_lrsc",
    "VerificationReport", "verify_scalar", "verify_stream",
    "PecChannel", "SimResult", "run_sim", "sweep",
    "__version__",
]
