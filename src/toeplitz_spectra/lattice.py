"""Partitioned multi-index bookkeeping for truncated Bergman-space bases.

The ambient dimension n is split into m groups of sizes k = (k_1,...,k_m).
A multi-index alpha in Z_+^n then carries a partition view
alpha_(1),...,alpha_(m) and a group-degree tuple
kappa = (|alpha_(1)|,...,|alpha_(m)|).  The finite-dimensional space
H_kappa is spanned by the normalized monomials whose group degrees equal
kappa, and the truncation at cap D is the orthogonal sum of all H_kappa
with |kappa| <= D.

Basis order is pinned for reproducibility: graded reverse lexicographic
within each group block, kappa tuples enumerated by total degree and then
grevlex, groups combined with group 1 as the slowest index (matching the
tensor-product convention of numpy.kron).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import LatticeError

Index = tuple[int, ...]


@dataclass(frozen=True)
class PartitionConfig:
    """Geometry of every computation: group sizes k and weight parameter.

    Invariants: k_1 <= ... <= k_m with all k_j >= 1, and lam > -1.
    The group count m is derived from k; the ambient dimension is sum(k).
    """

    k: Index
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        if len(self.k) == 0:
            raise LatticeError("partition needs at least one group")
        if any(v < 1 for v in self.k):
            raise LatticeError(f"group sizes must be positive, got {self.k}")
        if any(a > b for a, b in zip(self.k, self.k[1:])):
            raise LatticeError(f"group sizes must be nondecreasing, got {self.k}")
        if not self.lam > -1.0:
            raise LatticeError(f"weight parameter must exceed -1, got {self.lam}")

    @property
    def m(self) -> int:
        return len(self.k)


def _grevlex_key(alpha: Index) -> Index:
    # Within a fixed total degree, grevlex order is ascending lex on the
    # reversed tuple.
    return alpha[::-1]


@lru_cache(maxsize=None)
def block_indices(kj: int, d: int) -> tuple[Index, ...]:
    """All alpha in Z_+^kj with |alpha| = d, graded-reverse-lex ordered."""
    if kj < 1:
        raise LatticeError(f"group size must be >= 1, got {kj}")
    if d < 0:
        raise LatticeError(f"degree must be >= 0, got {d}")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    return tuple(sorted(compositions(d, kj), key=_grevlex_key))


def enumerate_kappa(groups: PartitionConfig | int, total_cap: int) -> list[Index]:
    """All group-degree tuples kappa with |kappa| <= total_cap, over a
    partition's m groups or over a given group count.

    Ordered by total degree, then grevlex; this order fixes the global
    basis layout of the truncation.
    """
    if total_cap < 0:
        raise LatticeError(f"cap must be >= 0, got {total_cap}")
    m = groups if isinstance(groups, int) else groups.m
    out: list[Index] = []
    for deg in range(total_cap + 1):
        out.extend(block_indices(m, deg))
    return out


class GlobalBasis:
    """Ordered basis of the truncation ⊕_{|kappa| <= cap} H_kappa.

    Realizes the basis index map (the tensor-factorization unitary): the
    H_kappa follow one another in ``kappas`` order, and within each kappa
    the basis is the cartesian product of the per-group block bases, group
    1 slowest, the kron-product index layout of the per-group blocks.
    ``dim`` is the dimension of the whole truncation.
    """

    def __init__(self, cfg: PartitionConfig, cap: int):
        self.cfg, self.cap = cfg, cap
        self.kappas: list[Index] = enumerate_kappa(cfg, cap)
        self.dim = sum(
            math.prod(len(block_indices(kj, kap)) for kj, kap in zip(cfg.k, kappa))
            for kappa in self.kappas
        )
