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
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import LatticeError
from .quad import gammaln

Index = tuple[int, ...]


@dataclass(frozen=True)
class PartitionConfig:
    """Geometry of every computation: group sizes k and weight parameter.

    Invariants: k_1 <= ... <= k_m with all k_j >= 1, and lam > -1.
    The ambient dimension n and group count m are derived from k.
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
    def n(self) -> int:
        return sum(self.k)

    @property
    def m(self) -> int:
        return len(self.k)

    @property
    def group_slices(self) -> tuple[slice, ...]:
        out, start = [], 0
        for kj in self.k:
            out.append(slice(start, start + kj))
            start += kj
        return tuple(out)

    def split(self, alpha: Index) -> tuple[Index, ...]:
        """Partition view (alpha_(1),...,alpha_(m)) of a full multi-index."""
        if len(alpha) != self.n:
            raise LatticeError(f"multi-index length {len(alpha)} != n={self.n}")
        return tuple(tuple(alpha[s]) for s in self.group_slices)

    def kappa_of(self, alpha: Index) -> Index:
        return tuple(sum(part) for part in self.split(alpha))

    def join(self, parts) -> Index:
        return tuple(v for part in parts for v in part)


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


def log_monomial_norm_sq(alpha: Index, cfg: PartitionConfig) -> float:
    """log of ||z^alpha||^2 in the weighted Bergman space over the ball.

    ||z^alpha||^2 = alpha! Gamma(n + lam + 1) / Gamma(n + |alpha| + lam + 1),
    evaluated as a log-Gamma difference so that degrees of several hundred
    stay representable.
    """
    n, lam = cfg.n, cfg.lam
    total = sum(alpha)
    return float(
        sum(gammaln(a + 1.0) for a in alpha)
        + gammaln(n + lam + 1.0)
        - gammaln(n + total + lam + 1.0)
    )


class GlobalBasis:
    """Ordered basis of the truncation ⊕_{|kappa| <= cap} H_kappa.

    Realizes the basis index map (the tensor-factorization unitary): within
    each kappa the basis is the cartesian product of the per-group block
    bases, group 1 slowest, so the slice of H_kappa carries exactly the
    kron-product index layout of the per-group blocks.
    """

    def __init__(self, cfg: PartitionConfig, cap: int):
        self.cfg = cfg
        self.cap = cap
        self.kappas: list[Index] = enumerate_kappa(cfg, cap)
        offsets: dict[Index, tuple[int, int]] = {}
        start = 0
        for kappa in self.kappas:
            size = math.prod(len(block_indices(kj, kap)) for kj, kap in zip(cfg.k, kappa))
            offsets[kappa] = (start, size)
            start += size
        self.dim = start
        self._offsets = offsets

    @cached_property
    def alphas(self) -> tuple[Index, ...]:
        """The basis multi-indices in order; built on first use."""
        return tuple(
            self.cfg.join(combo)
            for kappa in self.kappas
            for combo in product(*(block_indices(kj, kap) for kj, kap in zip(self.cfg.k, kappa)))
        )

    def slice_of(self, kappa: Index) -> slice:
        try:
            start, size = self._offsets[tuple(kappa)]
        except KeyError:
            raise LatticeError(f"kappa={kappa} outside the cap-{self.cap} truncation")
        return slice(start, start + size)

    def kappa_array(self) -> np.ndarray:
        """(dim, m) integer array of group degrees per basis element."""
        return np.array([self.cfg.kappa_of(a) for a in self.alphas], dtype=int)
