"""Waffle system parameters and the theoretical α/β bounds.

Table 1 of the paper defines the tunable parameters; Theorems 7.1 and 7.2
give the security bounds they induce:

* α (upper bound, Theorem 7.1): any object written to the server is read
  within ``ceil(max((N-1)/(B-R-f_D), D/f_D))`` batch rounds.
* β (lower bound, Theorem 7.2): an object read from the server is written
  back no earlier than ``floor(C/(B-f_D+R) - 1)`` rounds later.

Lower α and higher β mean more security (Theorem 5.1); the
``security_score`` β/α is what the paper's parameter search maximizes
(§8.3.1).  The preset constructors reproduce Table 2's three security
levels and §8.2's defaults, parameterized by N so experiments can scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["SecurityLevel", "WaffleConfig"]

#: Sentinel α reported when f_R can drop to values so small the bound is
#: effectively unbounded; the paper prints 999999 for its low-security row.
ALPHA_UNBOUNDED = 999_999


class SecurityLevel(enum.Enum):
    """The three named parameter presets of Table 2."""

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


@dataclass(frozen=True)
class WaffleConfig:
    """Waffle's tunable system parameters (Table 1).

    Attributes
    ----------
    n:
        Number of real objects, N.
    b:
        Batch size B sent to the server per round.
    r:
        Maximum number of (deduplicated) real client requests per batch, R.
    f_d:
        Fake queries on dummy objects per batch, f_D.
    d:
        Number of dummy objects in the system, D.
    c:
        Proxy cache size, C.
    value_size:
        Object value size in bytes (all values equal length, §3.1).
    seed:
        Master seed for keys, dummy generation and tie-breaking; fixing it
        makes an entire deployment reproducible.
    """

    n: int
    b: int
    r: int
    f_d: int
    d: int
    c: int
    value_size: int = 1024
    seed: int | None = None
    #: Fake-dummy selection policy.  ``"reshuffle"`` is the paper's
    #: design: all dummy timestamps reset every ceil(D/f_D) batches to
    #: randomize the selection order.  We found this *weakens* the dummy
    #: component of Theorem 7.1 to 2*ceil(D/f_D) - 2 (a dummy read at the
    #: start of one epoch can be reshuffled to the end of the next), a gap
    #: the paper's short runs (~3.5 epochs) could not observe.
    #: ``"round_robin"`` skips the reset and satisfies Theorem 7.1 exactly.
    #: See :meth:`alpha_bound` vs :meth:`alpha_bound_effective`.
    dummy_policy: str = "reshuffle"
    #: Fake-real selection policy.  ``"least_recent"`` is Waffle's design
    #: (Challenge 2).  ``"uniform"`` picks server-resident keys uniformly
    #: at random instead — the ablation baseline, which loses the α bound
    #: entirely (a key can dodge selection arbitrarily long).
    fake_real_policy: str = "least_recent"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError("N must be positive")
        if self.b <= 1:
            raise ConfigurationError("batch size B must exceed 1 (§4)")
        if not 1 <= self.r <= self.b:
            raise ConfigurationError("R must satisfy 1 <= R <= B")
        if self.f_d < 0 or self.d < 0:
            raise ConfigurationError("f_D and D must be non-negative")
        if (self.f_d == 0) != (self.d == 0):
            raise ConfigurationError("f_D and D must both be zero or both positive")
        if self.f_d > self.d:
            raise ConfigurationError("f_D cannot exceed the number of dummies D")
        if self.r + self.f_d >= self.b:
            raise ConfigurationError(
                "B must leave room for at least one fake query on real "
                "objects: R + f_D < B"
            )
        if self.c < 0:
            raise ConfigurationError("cache size C must be non-negative")
        if self.c > self.n:
            raise ConfigurationError("cache size C cannot exceed N")
        if self.value_size <= 0:
            raise ConfigurationError("value_size must be positive")
        if self.dummy_policy not in ("reshuffle", "round_robin"):
            raise ConfigurationError(
                f"unknown dummy policy: {self.dummy_policy!r}"
            )
        if self.fake_real_policy not in ("least_recent", "uniform"):
            raise ConfigurationError(
                f"unknown fake-real policy: {self.fake_real_policy!r}"
            )
        if self.c + self.b - self.f_d > self.n:
            raise ConfigurationError(
                "the server must always hold at least B - f_D real objects "
                "for fake queries: require C + B - f_D <= N"
            )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def f_r_min(self) -> int:
        """Minimum fake queries on real objects per batch: B - R - f_D."""
        return self.b - self.r - self.f_d

    def alpha_bound(self) -> int:
        """Theorem 7.1: α = ceil(max((N-1)/(B-R-f_D), D/f_D))."""
        real_term = (self.n - 1) / self.f_r_min
        dummy_term = self.d / self.f_d if self.f_d else 0.0
        alpha = math.ceil(max(real_term, dummy_term))
        return min(alpha, ALPHA_UNBOUNDED)

    def alpha_bound_effective(self) -> int:
        """The α bound the *implementation* guarantees.

        Equals Theorem 7.1 under ``round_robin`` dummy selection.  Under
        the paper's ``reshuffle`` policy the dummy term becomes
        ``2*ceil(D/f_D) - 2`` (worst case across an epoch boundary); the
        real-object term is unchanged.
        """
        real_term = math.ceil((self.n - 1) / self.f_r_min)
        if self.f_d == 0:
            dummy_term = 0
        elif self.dummy_policy == "round_robin":
            dummy_term = math.ceil(self.d / self.f_d)
        else:
            dummy_term = 2 * math.ceil(self.d / self.f_d) - 2
        return min(max(real_term, dummy_term), ALPHA_UNBOUNDED)

    def beta_bound(self) -> int:
        """Theorem 7.2: β = floor(C/(B-f_D+R) - 1), clamped at 0."""
        turnover = self.b - self.f_d + self.r
        return max(0, math.floor(self.c / turnover - 1))

    def security_score(self) -> float:
        """β/α — the quantity maximized by the paper's parameter search."""
        alpha = self.alpha_bound()
        return self.beta_bound() / alpha if alpha else math.inf

    def bandwidth_overhead(self) -> float:
        """Constant bandwidth overhead (f_D + f_R)/R per real request (§6.2)."""
        return (self.f_d + self.f_r_min) / self.r

    def cache_turnover_per_round(self) -> int:
        """Cache recency updates per round: B - f_D + R (Theorem 7.2 proof)."""
        return self.b - self.f_d + self.r

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_defaults(cls, n: int = 2**20, seed: int | None = None) -> "WaffleConfig":
        """§8.2 defaults, scaled proportionally from the paper's N=2^20.

        B=2500, R=40% of B, f_D=20% of B, C=2% of N, and D chosen so the
        two α ratios are equal ((N-1)/f_R = D/f_D), which the paper states
        maximizes security for a given budget (§8.2 'Changing D').
        """
        scale = n / 2**20
        b = max(10, round(2500 * scale))
        r = max(1, round(0.4 * b))
        f_d = max(1, round(0.2 * b))
        c = max(1, round(0.02 * n))
        d = cls._balanced_dummies(n, b, r, f_d)
        return cls(n=n, b=b, r=r, f_d=f_d, d=d, c=c, seed=seed)

    @staticmethod
    def _balanced_dummies(n: int, b: int, r: int, f_d: int) -> int:
        """D making (N-1)/(B-R-f_D) equal D/f_D (the high-security balance)."""
        f_r = b - r - f_d
        if f_r <= 0 or f_d == 0:
            return 0
        return max(f_d, round((n - 1) / f_r * f_d))

    @classmethod
    def security_preset(cls, level: SecurityLevel, n: int = 10**6,
                        seed: int | None = None) -> "WaffleConfig":
        """Table 2's high/medium/low parameter rows, scaled by N.

        At the paper's N=10^6 these reproduce Table 2 exactly:
        high → α=165, β=161; medium → α=1000, β=5; low → α=999999, β=4.
        """
        scale = n / 10**6
        if level is SecurityLevel.HIGH:
            b = max(20, round(10_000 * scale))
            r = max(1, round(25 * scale))
            f_d = round(3914 * scale)
            d = max(f_d, round(4000 * scale))
            c = round(0.99 * n)
        elif level is SecurityLevel.MEDIUM:
            b = max(10, round(2500 * scale))
            r = max(1, round(1000 * scale))
            f_d = round(500 * scale)
            d = round(350_000 * scale)
            c = round(0.02 * n)
        else:  # LOW: R = 0.8B - 1 leaves f_R = 1 (not oblivious, §8.3.1)
            b = max(10, round(2500 * scale))
            f_d = round(500 * scale)
            r = b - f_d - 1
            d = round(350_000 * scale)
            c = round(0.02 * n)
        f_d = max(1, f_d)
        d = max(f_d, d)
        return cls(n=n, b=b, r=r, f_d=f_d, d=d, c=c, seed=seed)

    def scaled(self, n: int) -> "WaffleConfig":
        """This configuration re-derived proportionally for a new N."""
        factor = n / self.n
        b = max(2, round(self.b * factor))
        r = min(b - 1, max(1, round(self.r * factor)))
        f_d = max(0, min(b - r - 1, round(self.f_d * factor)))
        d = 0 if f_d == 0 else max(f_d, round(self.d * factor))
        c = min(n, max(0, round(self.c * factor)))
        return replace(self, n=n, b=b, r=r, f_d=f_d, d=d, c=c)
