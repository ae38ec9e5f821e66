import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from toeplitz_spectra.assembly import AlgebraModel
from toeplitz_spectra.lattice import PartitionConfig
from toeplitz_spectra.symbols import (
    QuasiRadialSymbol,
    builtin_quasi_homogeneous,
    profile_symbol,
)


@pytest.fixture(scope="session")
def cfg_n3():
    return PartitionConfig(k=(1, 2), lam=0.0)


@pytest.fixture(scope="session")
def nilpotent_model(cfg_n3):
    """n=3, k=(1,2): single nonzero quasi-homogeneous mode on group 2."""
    return AlgebraModel(cfg=cfg_n3, symbols={2: builtin_quasi_homogeneous(2, (1, -1))})


@pytest.fixture(scope="session")
def diagonal_model(cfg_n3):
    """n=3, k=(1,2): profile-only symbol with distinct diagonal blocks."""
    return AlgebraModel(cfg=cfg_n3, symbols={2: profile_symbol(2, 2, "s1^2")})


@pytest.fixture(scope="session")
def radial_model(cfg_n3):
    return AlgebraModel(
        cfg=cfg_n3,
        quasi_radial=QuasiRadialSymbol.from_expression(2, "1 - r1^2*r2^2"),
        symbols={2: builtin_quasi_homogeneous(2, (1, -1))},
    )
