"""The 2^K exhaustive-enumeration oracle of the n-out-of-K vote, shared by the tests."""
import math

from coopsense.fusion import FusionConfig

ENUMERATION_MAX_RADIOS = 20


def enumerate_rule(cfg: FusionConfig, p_assert, pe) -> float:
    """Exhaustive-enumeration oracle for the vote probabilities.

    Walks every possible received bit vector, weighting each by its exact
    per-bit probability, and accumulates the mass of vectors with at least n
    ones. Each radio independently asserts 1 with probability ``p_assert``
    and each transmitted bit flips with probability ``pe``. Exact up to
    floating-point summation; limited to K <= 20 (2^K vectors).
    """
    k, n = cfg.num_radios_k, cfg.vote_threshold_n
    if k > ENUMERATION_MAX_RADIOS:
        raise ValueError(f"exhaustive enumeration is limited to K <= {ENUMERATION_MAX_RADIOS}, got {k}")
    p, e = float(p_assert), float(pe)
    if not (0.0 <= p <= 1.0 and 0.0 <= e <= 1.0):
        raise ValueError(f"p_assert and pe must lie in [0, 1], got {p_assert!r} and {pe!r}")
    one = p * (1.0 - e) + (1.0 - p) * e
    zero = (1.0 - p) * (1.0 - e) + p * e
    total = math.fsum(
        one ** mask.bit_count() * zero ** (k - mask.bit_count())
        for mask in range(1 << k)
        if mask.bit_count() >= n
    )
    return total
