"""Finitely generated abelian groups in invariant-factor form.

A group is Z^free_rank + Z/d_1 + ... + Z/d_k with 2 <= d_1 | d_2 | ... | d_k.
That normal form is unique, so equality of groups is tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ContractError

__all__ = [
    "FgAbGroup",
    "HomologyProfile",
    "TRIVIAL",
    "normalize_factors",
]


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def normalize_factors(factors) -> tuple[int, ...]:
    """Turn an arbitrary multiset of cyclic orders into a divisor chain.

    Z/a + Z/b = Z/gcd(a,b) + Z/lcm(a,b), applied until stable.  Factors
    <= 1 contribute nothing.
    """
    fs = sorted(d for d in factors if d > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if fs[j] % fs[i]:
                    g = gcd(fs[i], fs[j])
                    fs[i], fs[j] = g, _lcm(fs[i], fs[j])
                    changed = True
        fs = sorted(d for d in fs if d > 1)
    return tuple(fs)


@dataclass(frozen=True)
class FgAbGroup:
    """Immutable f.g. abelian group in normal form."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ContractError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ContractError(f"torsion {self.torsion} is not a divisor chain")
        if any(d < 2 for d in self.torsion):
            raise ContractError(f"torsion entries must be >= 2, got {self.torsion}")

    @classmethod
    def from_factors(cls, free_rank: int, factors) -> "FgAbGroup":
        return cls(free_rank, normalize_factors(factors))

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        rank = self.free_rank + sum(o.free_rank for o in others)
        factors = list(self.torsion)
        for o in others:
            factors.extend(o.torsion)
        return FgAbGroup.from_factors(rank, factors)

    def tensor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Tensor product over Z.

        Z^a (x) Z^b = Z^(ab); Z^a (x) Z/d = (Z/d)^a; Z/d (x) Z/e = Z/gcd(d,e).
        """
        factors = []
        for d in self.torsion:
            factors.extend([d] * other.free_rank)
            factors.extend(gcd(d, e) for e in other.torsion)
        for e in other.torsion:
            factors.extend([e] * self.free_rank)
        return FgAbGroup.from_factors(self.free_rank * other.free_rank, factors)

    def tor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Tor_1^Z; free parts contribute nothing, Tor(Z/d, Z/e) = Z/gcd."""
        return FgAbGroup.from_factors(
            0, (gcd(d, e) for d in self.torsion for e in other.torsion)
        )

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, data: dict) -> "FgAbGroup":
        """Inverse of to_json.  The free rank and the torsion entries must
        be ints: a float, string or bool is a TypeError, not truncated.
        A key other than free_rank and torsion is a ValueError."""
        unknown = sorted(set(data) - {"free_rank", "torsion"})
        if unknown:
            raise ValueError(f"unknown group keys {unknown}")
        free_rank = data["free_rank"]
        torsion = tuple(data.get("torsion", ()))
        for x in (free_rank, *torsion):
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"group entries must be integers, got {x!r}")
        return cls(free_rank, torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


TRIVIAL = FgAbGroup()


@dataclass
class HomologyProfile:
    """Graded collection H_0, H_1, ... with trivial degrees left implicit.

    Equality compares the groups degree by degree, so profiles from
    different computation routes can be checked against each other
    directly.
    """

    groups: dict[int, FgAbGroup]

    def __post_init__(self):
        self.groups = {
            d: g for d, g in sorted(self.groups.items()) if not g.is_trivial
        }
        if any(d < 0 for d in self.groups):
            raise ContractError("negative homological degree")

    def group_at(self, degree: int) -> FgAbGroup:
        return self.groups.get(degree, TRIVIAL)

    @property
    def max_degree(self) -> int:
        return max(self.groups, default=0)

    def truncated(self, max_degree: int) -> "HomologyProfile":
        return HomologyProfile({d: g for d, g in self.groups.items() if d <= max_degree})

    def to_json(self) -> dict:
        return {str(d): g.to_json() for d, g in self.groups.items()}

    @classmethod
    def from_json(cls, data: dict) -> "HomologyProfile":
        return cls({int(d): FgAbGroup.from_json(g) for d, g in data.items()})

    def __str__(self) -> str:
        if not self.groups:
            return "H_* = 0"
        return ", ".join(f"H_{d} = {g}" for d, g in self.groups.items())
