import tracemalloc

import numpy as np
import pytest

from toeplitz_spectra import checks, quad
from toeplitz_spectra.assembly import AlgebraModel, assemble_block
from toeplitz_spectra.gelfand import DiagonalCoefficient, FiniteSum
from toeplitz_spectra.lattice import GlobalBasis, PartitionConfig, enumerate_kappa
from toeplitz_spectra.symbols import QuasiRadialSymbol, profile_symbol


def test_quadrature_doubling_compares_the_block_rules():
    # A profile that does not compile is assembled on the rule; the record is
    # its block's drift from order 16 to 32.
    sym = profile_symbol(1, 2, "(1 + s1)^0.5")
    model = AlgebraModel(cfg=PartitionConfig(k=(2,)), symbols={1: sym}, block_order=16)
    (record,) = checks.quadrature_doubling(model, 2, 2)
    b1 = assemble_block(sym, 1, 2, order=16)
    b2 = assemble_block(sym, 1, 2, order=32)
    assert 0 < record["residual"] == float(np.max(np.abs(b1 - b2)))


def _cumulative_indicator(cls, j, d):
    return cls.from_callable(lambda kappa: 1.0 if kappa[j - 1] >= d else 0.0, f"[k{j}>={d}]")


# (1, 2) is one of the acceptance suite's CONFIG_KS.
@pytest.mark.parametrize("k", [(1, 1, 2), (1, 2)], ids=["k112", "k12"])
def test_projection_identities_fail_on_broken_coefficient_algebra(k, monkeypatch):
    basis = GlobalBasis(PartitionConfig(k=k), 4)
    assert checks.projection_identities(basis, 1)[0]["passed"]
    with monkeypatch.context() as mp:
        mp.setattr(DiagonalCoefficient, "indicator_degree", classmethod(_cumulative_indicator))
        assert not checks.projection_identities(basis, 1)[0]["passed"]
    with monkeypatch.context() as mp:
        mp.setattr(FiniteSum, "__mul__", FiniteSum.__add__)
        assert not checks.projection_identities(basis, 1)[0]["passed"]


# Residuals of the Dirichlet probability rule, the one gamma and the block
# entries use, each trial built into one buffer: a change to the rule, to
# the Duffy collapse or to the order of the mean's sums moves these bits.
@pytest.mark.parametrize("seed, residual", [
    (1, "0x1.3762762762763p-49"), (2, "0x1.9cb8e38e38e38p-50"), (3, "0x1.002999999999ap-48"),
])
def test_dirichlet_vs_simplex_residual_bits_are_pinned(seed, residual):
    (record,) = checks.dirichlet_vs_simplex(np.random.default_rng(seed), 60, 48, power=4)
    assert record["residual"].hex() == residual
    assert record["residual"] < 1e-13


def test_dirichlet_vs_simplex_builds_its_rules_outside_the_rule_cache():
    before = quad._dirichlet_rule_cached.cache_info()
    (record,) = checks.dirichlet_vs_simplex(np.random.default_rng(4), 12, 16, power=4)
    assert record["passed"]
    assert quad._dirichlet_rule_cached.cache_info() == before


def test_gamma_rules_use_each_kappa_rule_while_it_is_held():
    # The rule memo holds one rule: the identity and the compiled check of a
    # kappa share its order-8 rule on Delta_3, one miss and one hit.
    cfg = PartitionConfig(k=(1, 1, 2), lam=0.375)
    a = QuasiRadialSymbol.from_expression(3, "1 - 0.5*r1^2*r3^2 + 0.25*r2^2")
    before = quad._dirichlet_rule_cached.cache_info()
    records = checks.gamma_rules(a, cfg, 4, order=8)
    after = quad._dirichlet_rule_cached.cache_info()
    kappas = len(enumerate_kappa(cfg, 4))
    assert (after.misses - before.misses, after.hits - before.hits) == (kappas, kappas)
    assert after.bytes == 4 * 8**3 * 8
    assert [r["name"] for r in records] == ["gamma-identity", "quasi-radial-compiled"]
    assert all(r["passed"] for r in records)


@pytest.mark.parametrize("k, text, order", [
    ((1, 1), "1 - 0.5*r1*r2^2", 600), ((1, 1, 1), "1 - 0.5*r1*r2*r3^2", 80),
], ids=["m2", "m3"])
def test_gamma_rules_hold_at_most_the_priced_bytes_per_node(k, text, order):
    # quadrature.gamma_order is priced at 16m + 40 bytes a node of a gamma
    # rule (cli._price_gamma_rule).  Comparing the compiled terms with the
    # parsed expression on the whole rule at once held 128 and 144.
    cfg, m = PartitionConfig(k=k), len(k)
    a = QuasiRadialSymbol.from_expression(m, text)
    tracemalloc.start()
    try:
        records = checks.gamma_rules(a, cfg, 0, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r["passed"] for r in records)
    assert peak / order**m <= 16 * m + 40
