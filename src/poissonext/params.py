"""Problem parameters: dimension, kernel exponent, and derived exponents."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProblemParams:
    """Dimension n and kernel parameter a, with the derived critical exponents.

    The admissible range is n in {2, 3} and 2 - n < a < 1.  Every exponent
    in the library is derived from these two numbers:

      p_crit = 2(n-1)/(n+a-2)   boundary critical exponent
      p_bulk = 2n/(n+a-2)       matching bulk exponent
      q_exp  = (n-a+2)/(n+a-2)  power applied to the extension in the
                                Euler-Lagrange right-hand side
    """

    n: int
    a: float
    p_crit: float = field(init=False)
    p_bulk: float = field(init=False)
    q_exp: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n not in (2, 3):
            raise ValueError(f"n must be 2 or 3, got {self.n!r}")
        d = self.n + self.a - 2.0
        # d > 0 also rejects an a so close to 2 - n that d rounds to zero
        if not (2 - self.n < self.a < 1 and d > 0):
            raise ValueError(
                f"a must lie in (2-n, 1) = ({2 - self.n}, 1), got {self.a!r}"
            )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "p_crit", 2.0 * (self.n - 1) / d)
        object.__setattr__(self, "p_bulk", 2.0 * self.n / d)
        object.__setattr__(self, "q_exp", (self.n - self.a + 2.0) / d)

    @property
    def half_weight_power(self) -> float:
        """The conformal-factor exponent (n + a - 2)/2."""
        return 0.5 * (self.n + self.a - 2.0)
