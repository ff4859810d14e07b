import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

import eweyl as E
from eweyl import transform
from eweyl.transform import (
    forward_discrete,
    gram_matrix,
    gram_residual,
    inverse_discrete,
    interpolate,
    make_samples,
    normalizers,
    phase_matrix,
    quadrature_cells,
)
from eweyl.weyl import even_subgroup
from eweyl.efunc import xi, xi_closed
from conftest import discrete_cases, int_weight, rational_point


def _random_values(rng, grid):
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in grid]


def test_forward_of_constant():
    for sel in ("a1xa2", "a1xa1xa1"):
        system = E.system_from_selector(sel)
        order = even_subgroup(system, "e").order
        coeffs = forward_discrete(make_samples(system, "e", (2,), lambda p: 1.0))
        for sp, c in zip(coeffs.spectrum, coeffs.values):
            if sp.weight == (0,) * system.n:
                assert abs(c - 1 / order) < 1e-12
            else:
                assert abs(c) < 1e-12


def test_forward_of_basis_function():
    for system, kind, ms in [
        (E.system_from_selector("a1xc2"), "e", (3,)),
        (E.system_from_selector("a1xa2"), "ee", (2, 3)),
    ]:
        spectrum = E.build_weight_grid(system, kind, ms)
        mu = spectrum[len(spectrum) // 2].weight
        samples = make_samples(system, kind, ms, lambda p: xi(system, kind, mu, p))
        coeffs = forward_discrete(samples)
        for sp, c in zip(coeffs.spectrum, coeffs.values):
            want = 1.0 if sp.weight == mu else 0.0
            assert abs(c - want) < 1e-12


def test_forward_of_zero_and_linearity():
    rng = random.Random(20)
    system = E.system_from_selector("a1xg2")
    grid = E.build_point_grid(system, "e", 2)
    zero = forward_discrete(make_samples(system, "e", (2,), [0.0] * len(grid)))
    assert all(abs(c) < 1e-15 for c in zero.values)

    f = _random_values(rng, grid)
    g = _random_values(rng, grid)
    alpha, beta = complex(0.3, -1.1), complex(-2.0, 0.7)
    mix = [alpha * a + beta * b for a, b in zip(f, g)]
    cf = np.array(forward_discrete(make_samples(system, "e", (2,), f)).values)
    cg = np.array(forward_discrete(make_samples(system, "e", (2,), g)).values)
    cmix = np.array(forward_discrete(make_samples(system, "e", (2,), mix)).values)
    assert np.abs(cmix - (alpha * cf + beta * cg)).max() < 1e-12


def test_round_trip_subset():
    rng = random.Random(21)
    for system, kind, ms in discrete_cases()[:6]:
        grid = E.build_point_grid(system, kind, ms)
        samples = make_samples(system, kind, ms, _random_values(rng, grid))
        back = inverse_discrete(forward_discrete(samples))
        err = max(abs(a - b) for a, b in zip(back.values, samples.values))
        assert err < 1e-9


def test_coefficient_space_round_trip():
    rng = random.Random(25)
    system = E.system_from_selector("a1xg2")
    spectrum = E.build_weight_grid(system, "ee", (2, 2))
    vals = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in spectrum)
    coeffs = E.CoefficientSet(system, "ee", (2, 2), spectrum, vals)
    back = forward_discrete(inverse_discrete(coeffs))
    assert max(abs(a - b) for a, b in zip(back.values, vals)) < 1e-9


def test_inverse_edge_cases():
    system = E.system_from_selector("a1xa1")
    spectrum = E.build_weight_grid(system, "e", 2)
    zeros = E.CoefficientSet(system, "e", (2,), spectrum, (0j,) * len(spectrum))
    assert all(abs(v) < 1e-15 for v in inverse_discrete(zeros).values)

    order = even_subgroup(system, "e").order
    vals = tuple(
        1.0 + 0j if sp.weight == (0, 0) else 0j for sp in spectrum
    )
    const = inverse_discrete(E.CoefficientSet(system, "e", (2,), spectrum, vals))
    assert all(abs(v - order) < 1e-12 for v in const.values)


def test_foreign_grid_rejected():
    system = E.system_from_selector("a1xa1")
    grid = E.build_point_grid(system, "e", 2)
    samples = E.SampleSet(system, "e", (2,), tuple(reversed(grid)), (0j,) * len(grid))
    with pytest.raises(E.UsageError):
        forward_discrete(samples)


def test_wrong_lengths_name_both_counts():
    system = E.system_from_selector("a1xa1")
    grid = E.build_point_grid(system, "e", 2)
    spectrum = E.build_weight_grid(system, "e", 2)
    want = f"^expected {len(grid)} sample values for this grid, got 3$"
    with pytest.raises(E.UsageError, match=want):
        E.SampleSet(system, "e", (2,), grid, (0j,) * 3)
    with pytest.raises(E.UsageError, match=want):
        make_samples(system, "e", 2, [0j] * 3)
    want = f"^expected {len(spectrum)} coefficient values for this spectrum, got 3$"
    with pytest.raises(E.UsageError, match=want):
        E.CoefficientSet(system, "e", (2,), spectrum, (0j,) * 3)


def test_interpolation_matches_samples():
    rng = random.Random(22)
    system = E.system_from_selector("a1xa2")
    grid = E.build_point_grid(system, "ee", (2, 2))
    samples = make_samples(system, "ee", (2, 2), _random_values(rng, grid))
    coeffs = forward_discrete(samples)
    for gp, v in zip(grid, samples.values):
        assert abs(interpolate(coeffs, gp.point) - v) < 1e-9
    # away from the grid the series evaluates finitely
    off = rational_point(rng, 3)
    interpolate(coeffs, off)


def test_interpolation_of_constant_everywhere():
    rng = random.Random(23)
    system = E.system_from_selector("a1xc2")
    coeffs = forward_discrete(make_samples(system, "e", (2,), lambda p: 1.0))
    for _ in range(10):
        x = rational_point(rng, 3)
        assert abs(interpolate(coeffs, x) - 1.0) < 1e-9
    zeros = E.CoefficientSet(
        system, "e", (2,), coeffs.spectrum, (0j,) * len(coeffs.values)
    )
    assert interpolate(zeros, rational_point(rng, 3)) == 0j


def test_gram_residuals_subset():
    for system, kind, ms in discrete_cases()[:8]:
        assert gram_residual(system, kind, ms) < 1e-9


def test_a1_discrete_orthogonality_exact():
    # independent oracle: sum_{s=-M+1}^{M} zeta^{d s} with zeta = exp(i pi / M)
    # is a geometric sum over a full period, hence 2M when 2M | d, else 0
    a1 = E.assemble_system(("a1",))
    for m in range(1, 9):
        spectrum = E.build_weight_grid(a1, "e", m)
        gram = gram_matrix(a1, "e", (m,))
        for i, si in enumerate(spectrum):
            for j, sj in enumerate(spectrum):
                d = si.weight[0] - sj.weight[0]
                oracle = 2 * m if d % (2 * m) == 0 else 0
                assert abs(gram[i, j] - oracle) < 1e-12


def test_a1_discrete_orthogonality_sympy_anchor():
    # exact symbolic evaluation of the same sums for small M
    sympy = pytest.importorskip("sympy")
    for m in (1, 2, 3):
        ts = list(range(-m + 1, m + 1))
        for t in ts:
            for tp in ts:
                total = sum(
                    sympy.exp(sympy.I * sympy.pi * (t - tp) * s / m)
                    for s in range(-m + 1, m + 1)
                )
                want = 2 * m if (t - tp) % (2 * m) == 0 else 0
                assert sympy.simplify(sympy.expand_complex(total - want)) == 0


def test_a1_continuous_orthogonality():
    # integral of Xi_l conj(Xi_l') over the even domain of a single A1
    # equals sqrt(2) delta, within 1e-6 at resolution 2048
    a1 = E.assemble_system(("a1",))
    cells = quadrature_cells(a1, "e", 2048)
    metric = math.sqrt(0.5)
    for lam in (-2, 0, 1, 3):
        for lamp in (-2, 0, 1, 3):
            total = 0j
            for (coords, w) in cells:
                x = float(coords[0])
                total += w * metric * np.exp(1j * np.pi * (lam - lamp) * x)
            want = math.sqrt(2) if lam == lamp else 0.0
            assert abs(total - want) < 1e-6


def test_continuous_coefficients_rank3():
    system = E.system_from_selector("a1xa2")
    mu = (1, 1, 0)
    f = lambda p: xi_closed(system, "e", mu, p)
    cc = E.continuous_coefficients(f, system, "e", weight_bound=1, resolution=12)
    assert mu in cc.weights
    for w, v in zip(cc.weights, cc.values):
        want = 1.0 if w == mu else 0.0
        assert abs(v - want) < 1e-12


def test_continuous_coefficients_zero_function():
    a1 = E.assemble_system(("a1",))
    cc = E.continuous_coefficients(lambda p: 0.0, a1, "e", weight_bound=2, resolution=64)
    assert all(abs(v) < 1e-12 for v in cc.values)


def test_product_to_sum_multiset():
    system = E.system_from_selector("a1xa1")
    group = even_subgroup(system, "e")
    lam = (2, 1)
    assert E.product_to_sum(system, "e", lam, (0, 0)) == [lam] * group.order
    got = sorted(E.product_to_sum(system, "e", (2, 1), (1, 3)))
    assert got == sorted([(3, 4), (1, -2)])


def test_product_to_sum_numeric_identity():
    rng = random.Random(24)
    for sel in ("a1xa2", "a1xg2"):
        system = E.system_from_selector(sel)
        for kind in ("e", "ee"):
            lam = int_weight(rng, system.n, -2, 2)
            lam2 = int_weight(rng, system.n, -2, 2)
            terms = E.product_to_sum(system, kind, lam, lam2)
            for _ in range(5):
                x = rational_point(rng, system.n)
                lhs = xi(system, kind, lam, x) * xi(system, kind, lam2, x)
                rhs = sum(xi(system, kind, mu, x) for mu in terms)
                assert abs(lhs - rhs) < 1e-10


def test_phase_matrix_rebuild_is_bitwise_equal():
    system = E.system_from_selector("a1xa2")
    phase_matrix.cache_clear()
    base = phase_matrix(system, "e", (2,)).copy()
    phase_matrix.cache_clear()
    rebuilt = phase_matrix(system, "e", (2,))
    phase_matrix.cache_clear()
    assert np.array_equal(base, rebuilt)
    oracle = np.array([
        [xi(system, "e", sp.weight, gp.point) for gp in E.build_point_grid(system, "e", (2,))]
        for sp in E.build_weight_grid(system, "e", (2,))
    ])
    assert np.array_equal(base, oracle)


def test_normalizer_values():
    # a1xa1 full even: detC |W^e| M^2 h = 8 M^2 h
    system = E.system_from_selector("a1xa1")
    norms = normalizers(system, "e", (2,))
    spectrum = E.build_weight_grid(system, "e", (2,))
    for n, sp in zip(norms, spectrum):
        assert n == 8 * 4 * sp.h
    # a1xa1xa1 product even: detC |W^ee| M1 M2 M3 = 8 M1 M2 M3
    system3 = E.system_from_selector("a1xa1xa1")
    norms3 = normalizers(system3, "ee", (1, 2, 3))
    spec3 = E.build_weight_grid(system3, "ee", (1, 2, 3))
    for n, sp in zip(norms3, spec3):
        assert n == 8 * 6 * sp.h


def test_dense_transform_is_the_plain_matrix_product():
    # pins the warm transform to the textbook dense formulas, bit for bit
    rng = random.Random(17)
    for system, kind, ms in discrete_cases():
        grid = E.build_point_grid(system, kind, ms)
        ee = phase_matrix(system, kind, ms)
        eps = np.array([gp.epsilon for gp in grid], dtype=float)
        norms = normalizers(system, kind, ms)
        f = np.array(_random_values(rng, grid), dtype=complex)
        samples = make_samples(system, kind, ms, f)
        coeffs = forward_discrete(samples)
        want = (ee.conj() @ (eps * f)) / norms
        assert np.array(coeffs.values).tobytes() == want.tobytes()
        back = inverse_discrete(coeffs)
        assert np.array(back.values).tobytes() == (ee.T @ want).tobytes()
        gram = gram_matrix(system, kind, ms)
        assert gram_residual(system, kind, ms) == float(np.abs(gram - np.diag(norms)).max())
        for values in (samples.values, coeffs.values, back.values):
            assert all(type(v) is complex for v in values)
        with pytest.raises(ValueError):
            norms[0] = 0.0


def test_moduli_shape_does_not_change_the_transform():
    system = E.system_from_selector("a1xa2")
    grid = E.build_point_grid(system, "e", (2,))
    values = tuple(complex(i, -i) for i in range(len(grid)))
    results = []
    for ms in (2, [2], (2,)):
        coeffs = forward_discrete(E.SampleSet(system, "e", ms, grid, values))
        back = inverse_discrete(E.CoefficientSet(system, "e", ms, coeffs.spectrum, coeffs.values))
        assert coeffs.ms == back.ms == (2,)
        results.append((coeffs.values, back.values))
    assert results[0] == results[1] == results[2]


def test_warm_transform_allocates_no_dense_temporary():
    # the first grid takes the separable path, the second the dense one
    for sel, kind, ms in (("a1xa1xa1", "ee", (4, 4, 4)), ("a1xa2", "e", (6,))):
        system = E.system_from_selector(sel)
        n = len(E.build_point_grid(system, kind, ms))
        samples = make_samples(system, kind, ms, _random_values(random.Random(3), range(n)))
        inverse_discrete(forward_discrete(samples))  # fill the caches
        tracemalloc.start()
        try:
            coeffs = forward_discrete(samples)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            inverse_discrete(coeffs)
            inverse_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(forward_peak, inverse_peak) < n * n * 16 // 8, sel


def test_gram_matrix_allocates_one_dense_temporary():
    system, kind, ms = E.system_from_selector("a1xa1xa1"), "ee", (4, 4, 4)
    n = len(phase_matrix(system, kind, ms))
    normalizers(system, kind, ms)  # fill the caches
    tracemalloc.start()
    try:
        gram_matrix(system, kind, ms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 16


def _ee_cases():
    """Every kind ``ee`` case of ``discrete_cases()`` and three larger grids, up to N = 512."""
    extra = (("a1xa1", (6, 6)), ("a1xc2", (4, 4)), ("a1xa1xa1", (4, 4, 4)))
    return [c for c in discrete_cases() if c[1] == "ee"] + [
        (E.system_from_selector(sel), "ee", ms) for sel, ms in extra
    ]


def test_ee_phase_matrix_is_the_kronecker_product_of_the_factors():
    for system, kind, ms in _ee_cases():
        factors = [
            phase_matrix(E.assemble_system((f.kind,)), kind, (m,))
            for f, m in zip(system.factors, ms)
        ]
        dense = phase_matrix(system, kind, ms)
        assert np.abs(functools.reduce(np.kron, factors) - dense).max() <= 1e-13, ms


def test_separable_transform_matches_the_dense_formulas(monkeypatch):
    monkeypatch.setattr(transform, "SEPARABLE_MIN_N", 0)
    rng = random.Random(18)
    for system, kind, ms in _ee_cases():
        grid = E.build_point_grid(system, kind, ms)
        ee = phase_matrix(system, kind, ms)
        eps = np.array([gp.epsilon for gp in grid], dtype=float)
        f = np.array(_random_values(rng, grid), dtype=complex)
        want = (ee.conj() @ (eps * f)) / normalizers(system, kind, ms)
        coeffs = forward_discrete(make_samples(system, kind, ms, f))
        assert np.abs(np.array(coeffs.values) - want).max() <= 1e-12 * np.abs(want).max(), ms
        dense_coeffs = E.CoefficientSet(system, kind, ms, coeffs.spectrum, tuple(want.tolist()))
        back = inverse_discrete(dense_coeffs)
        want_back = ee.T @ want
        assert np.abs(np.array(back.values) - want_back).max() <= 1e-12 * np.abs(want_back).max()
        assert all(type(v) is complex for v in coeffs.values + back.values)


def test_separable_transform_past_the_dense_limit():
    system, kind, ms = E.system_from_selector("a1xa1xa1"), "ee", (12, 12, 12)
    grid = E.build_point_grid(system, kind, ms)
    assert len(grid) > transform.MAX_PHASE_MATRIX_N
    samples = make_samples(system, kind, ms, _random_values(random.Random(19), grid))
    back = inverse_discrete(forward_discrete(samples))
    assert max(abs(a - b) for a, b in zip(back.values, samples.values)) < 1e-9
