import numpy as np
import pytest

from toeplitz_spectra import checks
from toeplitz_spectra.assembly import AlgebraModel, assemble_block
from toeplitz_spectra.gelfand import DiagonalCoefficient, FiniteSum
from toeplitz_spectra.lattice import GlobalBasis, PartitionConfig
from toeplitz_spectra.symbols import expression_symbol


def test_quadrature_doubling_uses_the_model_torus_grid(monkeypatch):
    sym = expression_symbol(1, 2, "s1*s2*(t1*conj(t2)+t2*conj(t1))+s1^2")
    model = AlgebraModel(
        cfg=PartitionConfig(k=(2,)), symbols={1: sym}, block_order=16, torus_grid=16
    )
    grids = []

    def spy(*args, **kwargs):
        grids.append(kwargs.get("torus_grid"))
        return assemble_block(*args, **kwargs)

    monkeypatch.setattr(checks, "assemble_block", spy)
    (record,) = checks.quadrature_doubling(model, 2, 2)
    assert grids == [16, 16]
    b1 = assemble_block(sym, 1, 2, order=16, torus_grid=16)
    b2 = assemble_block(sym, 1, 2, order=32, torus_grid=16)
    assert record["residual"] == float(np.max(np.abs(b1 - b2)))


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
