"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are pinned here, not configurable.  Criteria 1-4, 6, 8 and
11-13 take their residuals from `toeplitz_spectra.checks`, the registry
that `toeplitz-spectra verify` runs with its own sizes.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import ball2_inner_product, monomial_norm_sq, opnorm
from toeplitz_spectra import checks
from toeplitz_spectra.assembly import AlgebraModel, assemble_block, frobenius
from toeplitz_spectra.gelfand import (
    DiagonalCoefficient,
    assemble_finite_sum,
    random_finite_sum,
    sample_ideal_space,
)
from toeplitz_spectra.lattice import GlobalBasis, PartitionConfig, block_indices
from toeplitz_spectra.radical import (
    decompose_by_division,
    is_semisimple,
    norm_constants,
    power_norm_sequence,
    radical_generator,
)
from toeplitz_spectra.planar import spectrum_with_hull
from toeplitz_spectra.spectra import berezin_sequence
from toeplitz_spectra.symbols import (
    QuasiRadialSymbol,
    builtin_quasi_homogeneous,
    constant_symbol,
    expression_symbol,
    profile_symbol,
)

CONFIG_KS = [(1, 1), (1, 2), (2, 2)]


def _report(number: int, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _worst(records, name):
    """Largest residual of the named check over registry records."""
    return max(r["residual"] for r in records if r["name"] == name)


def _random_radial(rng, m):
    pool = ["1", "1 - r{j}^2", "exp(-r{j}^2)", "0.5 + 0.5*r{j}^2"]
    text = pool[int(rng.integers(len(pool)))].replace("{j}", str(int(rng.integers(1, m + 1))))
    return QuasiRadialSymbol.from_expression(m, text)


def _three_mode_symbol(group):
    """Modes (0,0): 0.4, (1,-1): s1 s2 and (-1,1): 0.5 s1 s2."""
    return expression_symbol(
        group, 2, "0.4 + s1*s2*t1*conj(t2) + 0.5*s1*s2*t2*conj(t1)",
        boundary_continuous=True,
    )


def test_three_mode_symbol_declares_its_mode_table():
    declared = _three_mode_symbol(1).declared_mode_dict()
    table = {
        p: [(term.powers, complex(term.coeff)) for term in prof.terms]
        for p, prof in declared.items()
    }
    assert table == {
        (0, 0): [((0, 0), 0.4)],
        (1, -1): [((1, 1), 1.0)],
        (-1, 1): [((1, 1), 0.5)],
    }


def _random_group_symbol(rng, group, kj):
    if kj == 1:
        return constant_symbol(group, 1, complex(rng.standard_normal(), rng.standard_normal()))
    roll = int(rng.integers(4))
    if roll == 0:
        return builtin_quasi_homogeneous(group, (1, -1) if rng.random() < 0.5 else (2, -2))
    if roll == 1:
        return profile_symbol(group, 2, "s1^2" if rng.random() < 0.5 else "s1*s2 + 0.3")
    if roll == 2:
        return _three_mode_symbol(group)
    return expression_symbol(
        group, 2, "s1*s2*(t1*conj(t2) + conj(t1)*t2) + 0.25",
        boundary_continuous=True,
    )


@pytest.fixture(scope="module")
def product_models():
    """Five seeded invariant symbol products per partition config,
    alternating between the two weight parameters."""
    out = {}
    rng = np.random.default_rng(20240601)
    for k in CONFIG_KS:
        models = []
        for i in range(5):
            cfg = PartitionConfig(k=k, lam=0.0 if i % 2 == 0 else 1.5)
            a = _random_radial(rng, cfg.m)
            symbols = {
                j: _random_group_symbol(rng, j, cfg.k[j - 1])
                for j in range(1, cfg.m + 1)
            }
            models.append(
                AlgebraModel(
                    cfg=cfg, quasi_radial=a, symbols=symbols,
                    block_order=32,
                )
            )
        out[k] = models
    return out


@pytest.fixture(scope="module")
def nilpotent_demo():
    cfg = PartitionConfig(k=(1, 2), lam=0.0)
    return AlgebraModel(cfg=cfg, symbols={2: builtin_quasi_homogeneous(2, (1, -1))})


@pytest.fixture(scope="module")
def diagonal_demo():
    cfg = PartitionConfig(k=(1, 2), lam=0.0)
    return AlgebraModel(cfg=cfg, symbols={2: profile_symbol(2, 2, "s1^2")})


def test_criterion_01_quadrature_oracle():
    (rec,) = checks.dirichlet_vs_simplex(np.random.default_rng(1001), 200, 40, power=4)
    worst = rec["residual"]
    _report(1, worst < 1e-10, f"dirichlet vs simplex, worst rel err {worst:.3e}")


def test_criterion_02_identity_symbol():
    records = []
    for k in CONFIG_KS:
        for lam in (0.0, 1.5):
            cfg = PartitionConfig(k=k, lam=lam)
            for text in ("1 - 0.7*r1^2*r2^2", "r1 + 0.5*r2^3"):
                a = QuasiRadialSymbol.from_expression(cfg.m, text)
                records += checks.gamma_rules(a, cfg, 10)
        records += checks.identity_blocks(sorted(set(k)), 10)
    worst_gamma = _worst(records, "gamma-identity")
    worst_compiled = _worst(records, "quasi-radial-compiled")
    worst_block = _worst(records, "identity-blocks")
    ok = worst_gamma < 1e-10 and worst_compiled < 1e-12 and worst_block < 1e-12
    _report(
        2, ok,
        f"gamma dev {worst_gamma:.3e}, compiled gamma dev {worst_compiled:.3e}, "
        f"block dev {worst_block:.3e}",
    )


def test_criterion_03_block_orthogonality(product_models):
    records = [
        r for models in product_models.values() for model in models
        for r in checks.cross_block_orthogonality(model)
    ]
    worst = _worst(records, "cross-block-orthogonality")
    _report(3, worst < 1e-10, f"cross-block entry bound {worst:.3e} from the mode tables")


def test_criterion_04_commutativity_and_product(product_models):
    records = [
        r for models in product_models.values() for model in models
        for r in checks.commutativity_and_product(model, 6)
    ]
    worst_comm = _worst(records, "commutativity")
    worst_prod = _worst(records, "product-identity")
    ok = worst_comm < 1e-9 and worst_prod < 1e-9
    _report(4, ok, f"commutator {worst_comm:.3e}, product identity {worst_prod:.3e}")


def test_criterion_05_brute_force_blocks():
    cfg = PartitionConfig(k=(1, 1), lam=0.0)
    cases = {
        "quasi-homogeneous": (
            builtin_quasi_homogeneous(1, (1, -1)),
            lambda z: z[..., 0]
            * np.conj(z[..., 1])
            / np.maximum(np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 2, 1e-300),
        ),
        "generic": (
            expression_symbol(
                1, 2, "s1*s2*(t1*conj(t2) + conj(t1)*t2) + 0.25",
                boundary_continuous=True,
            ),
            lambda z: (
                (
                    z[..., 0] * np.conj(z[..., 1])
                    + np.conj(z[..., 0]) * z[..., 1]
                )
                / np.maximum(
                    np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 2, 1e-300
                )
                + 0.25
            ),
        ),
    }
    worst = 0.0
    for name, (sym, ball_fn) in cases.items():
        for d in range(5):
            block = assemble_block(sym, 1, d, order=48)
            indices = block_indices(2, d)
            for col, alpha in enumerate(indices):
                for row, beta in enumerate(indices):
                    want = ball2_inner_product(ball_fn, alpha, beta, 0.0, n_rad=60, n_ang=16)
                    want /= math.sqrt(
                        monomial_norm_sq(alpha, cfg) * monomial_norm_sq(beta, cfg)
                    )
                    worst = max(worst, abs(block[row, col] - want))
    _report(5, worst < 1e-6, f"block entries vs ball quadrature, worst {worst:.3e}")


def test_criterion_06_tensor_eigenvectors(product_models):
    records = [
        r for models in product_models.values()
        for r in checks.tensor_eigenvectors(models[0], 4)
    ]
    worst = _worst(records, "tensor-eigenvector")
    _report(6, worst < 1e-9, f"tensor eigenvector residual {worst:.3e} for |kappa| <= 4")


def test_criterion_07_berezin_limit():
    c = profile_symbol(1, 2, "s1^2")
    radial = QuasiRadialSymbol.from_expression(1, "r1^2")
    model = AlgebraModel(cfg=PartitionConfig(k=(2,)), symbols={1: c})
    probe = berezin_sequence(model, 1, (0.3, 0.4), [50, 100, 200], radial_profile=radial)
    errs = {d: abs(v - 0.36) for d, v in zip(probe.degrees, probe.values)}
    ok = errs[100] < 0.02 and errs[200] < errs[50]
    _report(
        7,
        ok,
        "berezin |z1|^2 at w=(0.3,0.4): "
        + ", ".join(f"err(d={d})={e:.2e}" for d, e in errs.items()),
    )


def test_criterion_08_hull_correctness():
    area, finite, idempotent = checks.planar_hulls(np.random.default_rng(88), 25, 512)
    area_err = area["residual"]
    fixed = finite["residual"] == 0.0
    idem = idempotent["residual"] == 0.0
    ok = area_err < 0.01 and fixed and idem
    _report(
        8,
        ok,
        f"circle hull area err {area_err:.4f}, finite fixed {fixed}, idempotent {idem}",
    )


def test_criterion_09_inverse_closed_classifier():
    cfg = PartitionConfig(k=(1, 2), lam=0.0)
    real_model = AlgebraModel(cfg=cfg, symbols={2: profile_symbol(2, 2, "s1^2")})
    circ_model = AlgebraModel(
        cfg=cfg,
        symbols={2: expression_symbol(2, 2, "exp(2*pi*i*s1^2)", boundary_continuous=True)},
        block_order=32,
    )

    def hulls(model):
        return [spectrum_with_hull(model, j, 5) for j in range(1, cfg.m + 1)]

    real_hulls, circ_hulls = hulls(real_model), hulls(circ_model)
    real_closed = all(swh.polynomially_convex for swh in real_hulls)
    circ_closed = all(swh.polynomially_convex for swh in circ_hulls)
    extra = circ_hulls[1].extra_cells
    ok = real_closed and not circ_closed and extra > 100
    _report(
        9,
        ok,
        f"real family closed={real_closed}, "
        f"circle family closed={circ_closed} (extra {extra} cells)",
    )


def test_criterion_10_semisimplicity(nilpotent_demo, diagonal_demo):
    diag = is_semisimple(diagonal_demo, 8)
    diag_half = is_semisimple(diagonal_demo, 8, tol=0.5e-10)
    nil = is_semisimple(nilpotent_demo, 8)
    nil_half = is_semisimple(nilpotent_demo, 8, tol=0.5e-10)
    ok = (
        diag.semisimple
        and not nil.semisimple
        and nil.witness == (2, 1)
        and diag.semisimple == diag_half.semisimple
        and nil.witness == nil_half.witness
    )
    _report(
        10,
        ok,
        f"profile family: {diag.describe()}; nilpotent family: {nil.describe()}",
    )


def test_criterion_11_radical_generators(nilpotent_demo):
    gamma = DiagonalCoefficient.from_callable(lambda kappa: 0.5 ** kappa[1], "0.5^k2")
    (rec,) = checks.radical_gelfand_vanishing(
        nilpotent_demo, 2, gamma, 8, sample_cap=8, budget=1200, zeta_per_region=48
    )
    psi_max = rec["residual"]
    n_points = len(sample_ideal_space(nilpotent_demo, 8, 1200, zeta_per_region=48))
    gen = radical_generator(nilpotent_demo, 2, gamma, 1, 8)
    op = assemble_finite_sum(gen.finite_sum, nilpotent_demo, 8)
    norms = power_norm_sequence(op, 6)
    monotone = all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    ok = (
        n_points >= 500
        and psi_max < 1e-8
        and frobenius(op) > 1e-6
        and monotone
    )
    _report(
        11,
        ok,
        f"{n_points} functionals, sup|psi(G)|={psi_max:.2e}, "
        f"|G|_F={frobenius(op):.3f}, power norms monotone={monotone}",
    )


def test_criterion_12_division_reconstruction(diagonal_demo):
    rng = np.random.default_rng(1212)
    cases = [
        (random_finite_sum(rng, diagonal_demo.cfg, 4, int(rng.integers(1, 6))), trial % 4)
        for trial in range(50)
    ]
    # Parts that still hold the generator count as residual 1.
    (rec,) = checks.division_reconstruction(diagonal_demo, cases, 2, 4)
    worst_res = rec["residual"]
    bound_ok = True
    nc = {d: norm_constants(diagonal_demo, 2, d) for d in range(4)}
    for A, d in cases:
        parts = decompose_by_division(A, 2, d, diagonal_demo)
        a_norm = opnorm(assemble_finite_sum(A, diagonal_demo, 4))
        for level in range(parts.n):
            s_norm = opnorm(assemble_finite_sum(
                parts.s_parts[level], diagonal_demo, 4
            ))
            if s_norm > nc[d].values[level] * a_norm + 1e-9:
                bound_ok = False
    ok = worst_res < 1e-9 and bound_ok
    _report(
        12,
        ok,
        f"50 sums: residual {worst_res:.2e} with generator-free parts, norm bounds {bound_ok}",
    )


def test_criterion_13_projection_algebra():
    records = [
        r for k in CONFIG_KS
        for r in checks.projection_identities(GlobalBasis(PartitionConfig(k=k, lam=0.0), 5), 2)
    ]
    ok = _worst(records, "projection-identities") == 0.0
    _report(13, ok, "P/Q/Qtilde coefficient identities and orthogonalization exact")


def test_criterion_14_determinism_across_threads(tmp_path):
    # The BLAS thread count, set in a fresh process's environment before
    # numpy loads, leaves the verify payload unchanged.
    config = {
        "partition": {"k": [1, 2], "lambda": 0.0},
        "degree_cap": 3,
        "quasi_radial": {"kind": "expression", "text": "1 - r1^2*r2^2"},
        "symbols": [{"group": 2, "kind": "quasi_homogeneous", "p": [1, -1]}],
        "hull": {"resolution": 256, "ess_samples": 2048},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    src = str(Path(checks.__file__).resolve().parents[1])
    shas = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = subprocess.run(
            [sys.executable, "-m", "toeplitz_spectra.cli", "verify", "--config", str(path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        report = json.loads((tmp_path / "out" / "report_verify.json").read_text())
        shas.append(report["payload_sha256"])
    ok = len(set(shas)) == 1
    _report(14, ok, f"verify payload sha identical at BLAS threads 1/2: {ok}")
