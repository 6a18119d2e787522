"""Sparse multi-indices labelling the Hermite basis of the chaos decomposition.

A MultiIndex is the exponent pattern alpha of a basis element
prod_i H_{alpha_i}(e~_i).  Basis indices are 0-based internally; the JSON
and DSL surfaces are 1-based and convert at the boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .hermite import ORDER_LIMIT, factorial


class MultiIndex:
    """Immutable sorted sparse map basis_index -> multiplicity.

    Canonical form is enforced at construction: indices strictly increasing,
    multiplicities >= 1, duplicates merged.  The empty index (degree 0) is
    the label of the constant term.
    """

    __slots__ = ("entries", "degree", "_hash")

    entries: tuple[tuple[int, int], ...]
    degree: int

    def __init__(self, entries: Iterable[tuple[int, int]] = ()):
        merged: dict[int, int] = {}
        for idx, mult in entries:
            idx = int(idx)
            mult = int(mult)
            if idx < 0:
                raise ValueError(f"basis index must be non-negative, got {idx}")
            if mult < 0:
                raise ValueError(f"multiplicity must be non-negative, got {mult}")
            if mult:
                merged[idx] = merged.get(idx, 0) + mult
        entries = tuple(sorted(merged.items()))
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "degree", sum(merged.values()))
        object.__setattr__(self, "_hash", hash(entries))

    @classmethod
    def _canonical(cls, entries: tuple[tuple[int, int], ...], degree: int) -> "MultiIndex":
        """Trusted constructor: entries already canonical, degree their
        multiplicity sum.  Nothing is checked; for decoders that build
        labels by construction."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", entries)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "_hash", hash(entries))
        return out

    @classmethod
    def from_exponents(cls, exponents: Mapping[int, int]) -> "MultiIndex":
        return cls(exponents.items())

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "MultiIndex":
        """Build from a list of basis indices with repetition, e.g. (0,0,2)."""
        counts: dict[int, int] = {}
        for i in indices:
            i = int(i)
            if i < 0:
                raise ValueError(f"basis index must be non-negative, got {i}")
            counts[i] = counts.get(i, 0) + 1
        return cls._canonical(tuple(sorted(counts.items())), sum(counts.values()))

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndex is immutable")

    def __eq__(self, other):
        return isinstance(other, MultiIndex) and self.entries == other.entries

    def __hash__(self):
        return self._hash  # every dict operation asks; hashed once at construction

    def __lt__(self, other: "MultiIndex"):
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        return (self.degree, self.entries)

    def __repr__(self):
        body = ", ".join(f"{i}:{m}" for i, m in self.entries)
        return "{" + body + "}"

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        counts = dict(self.entries)
        for i, m in other.entries:
            counts[i] = counts.get(i, 0) + m
        return MultiIndex(counts.items())

    def multiplicity(self, idx: int) -> int:
        for i, m in self.entries:
            if i == idx:
                return m
        return 0

    def decremented(self, idx: int) -> "MultiIndex":
        """Lower the multiplicity at idx by one (idx must be present)."""
        if not self.multiplicity(idx):
            raise ValueError(f"index {idx} absent, cannot decrement")
        return MultiIndex._canonical(tuple((i, m - (i == idx)) for i, m in self.entries
                                           if i != idx or m > 1), self.degree - 1)

    def factorial(self) -> float:
        """alpha! = prod multiplicities!, the diagonal weight of the basis."""
        out = 1.0
        for _, m in self.entries:
            out *= factorial(m)
        return out

    def ordered_count(self) -> float:
        """n!/alpha! for degree n, the ordered index tuples that sort to this
        label: exact in integers, rounded once."""
        return float(math.factorial(self.degree)
                     // math.prod(math.factorial(m) for _, m in self.entries))

    def weighted(self, *factors: float) -> float:
        """alpha! * factors[0] * factors[1] * ..., left to right in floats up
        to degree ORDER_LIMIT.  Beyond it alpha! overflows a double while the
        product may not, so the product is formed exactly and rounded once
        (OverflowError if it is not finite)."""
        if self.degree <= ORDER_LIMIT:
            out = self.factorial()
            for f in factors:
                out *= f
            return out
        exact = Fraction(math.prod(math.factorial(m) for _, m in self.entries))
        for f in factors:
            exact *= Fraction(f)
        return float(exact)

    def max_index(self) -> int:
        """Largest basis index present, -1 for the empty index."""
        return self.entries[-1][0] if self.entries else -1

    def to_indices(self) -> tuple[int, ...]:
        """Expanded sorted tuple listing indices with repetition."""
        out: list[int] = []
        for i, m in self.entries:
            out.extend([i] * m)
        return tuple(out)


EMPTY = MultiIndex()

