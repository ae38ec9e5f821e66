import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ball1_norm_sq, ball2_inner_product, basis_layout, dim_h_kappa, monomial_norm_sq,
)
from toeplitz_spectra.errors import LatticeError
from toeplitz_spectra.lattice import GlobalBasis, PartitionConfig, block_indices, enumerate_kappa


def test_partition_invariants():
    cfg = PartitionConfig(k=(1, 2), lam=0.5)
    assert cfg.m == 2
    with pytest.raises(LatticeError):
        PartitionConfig(k=(2, 1))
    with pytest.raises(LatticeError):
        PartitionConfig(k=(1, 2), lam=-1.0)
    with pytest.raises(LatticeError):
        PartitionConfig(k=())


def test_block_enumeration_examples():
    assert block_indices(1, 5) == ((5,),)
    assert block_indices(2, 2) == ((2, 0), (1, 1), (0, 2))
    indices = block_indices(3, 4)
    assert len(indices) == 15 == math.comb(6, 2)
    assert len(set(indices)) == 15
    assert all(sum(a) == 4 for a in indices)


@given(kj=st.integers(1, 4), d=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_block_enumeration_count_and_order(kj, d):
    idx = block_indices(kj, d)
    assert len(idx) == math.comb(d + kj - 1, kj - 1)
    assert len(set(idx)) == len(idx)
    # grevlex: ascending lexicographic on the reversed tuples
    rev = [a[::-1] for a in idx]
    assert rev == sorted(rev)


def test_kappa_enumeration_examples():
    assert enumerate_kappa(PartitionConfig(k=(2,)), 3) == [(0,), (1,), (2,), (3,)]
    assert enumerate_kappa(PartitionConfig(k=(1, 1)), 1) == [(0, 0), (1, 0), (0, 1)]
    threes = enumerate_kappa(PartitionConfig(k=(1, 1, 1)), 2)
    assert len(threes) == 10 == math.comb(5, 3)


def test_dim_h_kappa_vs_enumeration():
    for k in [(1, 2), (2, 2), (1, 1, 2), (2, 3), (4, 4)]:
        cfg = PartitionConfig(k=k)
        for kappa in enumerate_kappa(cfg, 8):
            count = 1
            for kj, kap in zip(k, kappa):
                count *= len(block_indices(kj, kap))
            assert dim_h_kappa(k, kappa) == count


def test_monomial_norm_examples():
    cfg1 = PartitionConfig(k=(1,), lam=0.0)
    assert monomial_norm_sq((0,), cfg1) == pytest.approx(1.0)
    assert monomial_norm_sq((1,), cfg1) == pytest.approx(0.5)
    cfg = PartitionConfig(k=(1, 2), lam=1.5)
    assert monomial_norm_sq((0, 0, 0), cfg) == pytest.approx(1.0)


def test_norm_ratio_depends_only_on_group_part():
    # ||z^{alpha+p}|| / ||z^alpha|| = sqrt((alpha_(j)+p_(j))! / alpha_(j)!)
    cfg = PartitionConfig(k=(1, 2), lam=1.5)
    alpha = (3, 1, 2)
    p = (0, 2, -2)
    beta = tuple(a + q for a, q in zip(alpha, p))
    ratio = math.sqrt(monomial_norm_sq(beta, cfg) / monomial_norm_sq(alpha, cfg))
    expect = math.sqrt((math.factorial(3) * math.factorial(0)) / (math.factorial(1) * math.factorial(2)))
    assert ratio == pytest.approx(expect, rel=1e-12)


@given(
    alpha2=st.tuples(st.integers(0, 10), st.integers(0, 10)),
    q=st.integers(-10, 10),
    lam=st.sampled_from([0.0, 1.5, -0.5]),
)
@settings(max_examples=40, deadline=None)
def test_norm_ratio_property(alpha2, q, lam):
    # Degree-preserving shifts inside one group change the norm only by the
    # factorial ratio of that group part, independent of lam and the rest.
    a1, a2 = alpha2
    if a1 + q < 0 or a2 - q < 0:
        return
    cfg = PartitionConfig(k=(1, 2), lam=lam)
    alpha = (4, a1, a2)
    beta = (4, a1 + q, a2 - q)
    ratio = monomial_norm_sq(beta, cfg) / monomial_norm_sq(alpha, cfg)
    expect = (
        math.factorial(a1 + q) * math.factorial(a2 - q)
        / (math.factorial(a1) * math.factorial(a2))
    )
    assert ratio == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_norm_against_ball_quadrature(lam):
    cfg1 = PartitionConfig(k=(1,), lam=lam)
    for a in range(5):
        assert monomial_norm_sq((a,), cfg1) == pytest.approx(
            ball1_norm_sq(a, lam), abs=1e-6
        )
    cfg2 = PartitionConfig(k=(1, 1), lam=lam)
    one = lambda z: np.ones(z.shape[:-1])
    for alpha in [(0, 0), (1, 0), (2, 2), (1, 3), (4, 0)]:
        got = ball2_inner_product(one, alpha, alpha, lam, n_rad=160)
        assert monomial_norm_sq(alpha, cfg2) == pytest.approx(got.real, abs=1e-6)


@given(cap=st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_global_basis_bijection(cap):
    # Per kappa, the product of the block_indices parts, group 1 slowest, is
    # the sorted layout; the kappas come in the layout's order.
    cfg = PartitionConfig(k=(1, 2), lam=0.0)
    basis = GlobalBasis(cfg, cap)
    layout = basis_layout(cfg.k, cap)
    assert basis.dim == len(layout) == sum(dim_h_kappa(cfg.k, kappa) for kappa in basis.kappas)
    assert basis.kappas == list(dict.fromkeys(kappa for kappa, _ in layout))
    built = [
        sum(combo, ())
        for kappa in basis.kappas
        for combo in product(*(block_indices(kj, kap) for kj, kap in zip(cfg.k, kappa)))
    ]
    assert built == [alpha for _, alpha in layout]


def test_global_basis_kappa_slices():
    cfg = PartitionConfig(k=(2, 2))
    basis = GlobalBasis(cfg, 4)
    layout = basis_layout(cfg.k, 4)
    for kappa in basis.kappas:
        sl = basis.slice_of(kappa)
        assert all(layout[i][0] == kappa for i in range(sl.start, sl.stop))
        assert sl.stop - sl.start == dim_h_kappa(cfg.k, kappa)


def test_kappa_enumeration_takes_a_group_count():
    for k in [(2,), (1, 2), (1, 1, 2)]:
        cfg = PartitionConfig(k=k)
        assert enumerate_kappa(len(k), 5) == enumerate_kappa(cfg, 5)
