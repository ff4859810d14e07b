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
from eweyl.efunc import _orbit_sum_kernel, xi, xi_closed
from conftest import discrete_cases, int_weight, no_grid_items, rational_point, traced_peak


def _random_values(rng, grid):
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in grid]


def test_normalizers_are_exported():
    assert E.normalizers is transform.normalizers


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
    with pytest.raises(E.UsageError):
        E.SampleSet(system, "e", (2,), tuple(reversed(grid)), (0j,) * len(grid))


def test_foreign_spectrum_rejected():
    system = E.system_from_selector("a1xa1")
    spectrum = E.build_weight_grid(system, "e", 2)
    with pytest.raises(E.UsageError):
        E.CoefficientSet(system, "e", (2,), tuple(reversed(spectrum)), [0j] * len(spectrum))
    # only the cached record is a set's grid: an equal copy is refused too
    grid = E.build_point_grid(system, "e", 2)
    copy = tuple(E.GridPoint(gp.point, gp.label, gp.epsilon) for gp in grid)
    assert copy == tuple(grid)
    with pytest.raises(E.UsageError, match="not the canonical grid"):
        E.SampleSet(system, "e", (2,), copy, [1j] * len(grid))
    with pytest.raises(E.UsageError, match="not the canonical spectrum"):
        E.CoefficientSet(system, "e", (2,), list(spectrum), [0j] * len(spectrum))


def test_sets_hold_one_read_only_complex_array():
    system = E.system_from_selector("a1xa2")
    grid = E.build_point_grid(system, "e", 2)
    spectrum = E.build_weight_grid(system, "e", 2)
    want = np.array([complex(i, -i) for i in range(len(grid))])
    source = want.copy()
    samples = [
        E.SampleSet(system, "e", (2,), grid, tuple(want.tolist())),
        E.SampleSet(system, "e", (2,), grid, want.tolist()),
        E.SampleSet(system, "e", (2,), grid, source),
        make_samples(system, "e", 2, lambda p, it=iter(want.tolist()): next(it)),
        make_samples(system, "e", 2, want.tolist()),
    ]
    source[0] = 99  # a writable array is copied, not shared
    k = len(spectrum)
    coeffs = [
        E.CoefficientSet(system, "e", (2,), spectrum, tuple(want[:k].tolist())),
        E.CoefficientSet(system, "e", (2,), spectrum, want[:k]),
        forward_discrete(samples[0]),
    ]
    for s in samples + coeffs + [inverse_discrete(coeffs[0])]:
        assert type(s.values) is np.ndarray and s.values.dtype == np.complex128
        assert not s.values.flags.writeable
        with pytest.raises(ValueError):
            s.values[0] = 0
    for s in samples:
        assert s.values.tobytes() == want.tobytes()
    assert coeffs[0].values.tobytes() == coeffs[1].values.tobytes() == want[:k].tobytes()
    # a read-only complex128 array is kept as it is
    assert E.SampleSet(system, "e", (2,), grid, samples[0].values).values is samples[0].values
    with pytest.raises(E.UsageError, match="shape"):
        E.SampleSet(system, "e", (2,), grid, want.reshape(1, -1))


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
            assert values.dtype == complex and not values.flags.writeable
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
        results.append(coeffs.values.tobytes() + back.values.tobytes())
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
    assert peak < 1.5 * n * n * 16


#: the largest grid of the benchmark's ``verify`` and a dense one of many column blocks
MEMORY_CASES = [("a1xa1xa1", "ee", (4, 4, 4)), ("a1xa2", "e", (12,))]


@pytest.mark.parametrize("sel, kind, ms", MEMORY_CASES)
def test_cold_phase_matrix_holds_one_matrix_and_one_block(sel, kind, ms):
    system = E.system_from_selector(sel)
    phase_matrix.__wrapped__(system, kind, ms)  # fill the grid and kernel caches
    p, peak = traced_peak(lambda: phase_matrix.__wrapped__(system, kind, ms))
    # per block entry: the sums, the residues and their phasors (40 B), and the set-up
    assert peak <= p.nbytes + 2**16 * 48


@pytest.mark.parametrize("sel, kind, ms", MEMORY_CASES)
def test_gram_residual_streams_row_blocks(sel, kind, ms):
    system = E.system_from_selector(sel)
    n = len(phase_matrix(system, kind, ms))
    normalizers(system, kind, ms)  # fill the caches
    residual, peak = traced_peak(lambda: gram_residual(system, kind, ms))
    assert residual < transform.TOL_ORTHOGONALITY
    assert peak <= n * n * 16 / 2


def _kernel_on_the_whole_grid(system, kind, ms):
    grid = E.build_point_grid(system, kind, ms)
    weights = E.build_weight_grid(system, kind, ms).weights
    return _orbit_sum_kernel(system, kind, weights, grid.denominator)(grid.numerators)


def test_blocked_phase_matrix_is_the_kernel_on_the_whole_grid(monkeypatch):
    # 1 788 points: 50 blocks of 2**16 // 1788 = 36 columns
    system, kind, ms = E.system_from_selector("a1xa2"), "e", (12,)
    whole = _kernel_on_the_whole_grid(system, kind, ms)
    assert phase_matrix(system, kind, ms).tobytes() == whole.tobytes()
    for system, kind, ms in discrete_cases():
        whole = _kernel_on_the_whole_grid(system, kind, ms)
        assert phase_matrix(system, kind, ms).tobytes() == whole.tobytes(), (system, kind, ms)
        # blocks of one column, of three, and a last block cut short
        for entries in (1, 3 * len(whole), 7 * len(whole) + 1):
            monkeypatch.setattr(transform, "_BLOCK_ENTRIES", entries)
            blocked = phase_matrix.__wrapped__(system, kind, ms)
            assert blocked.tobytes() == whole.tobytes() and not blocked.flags.writeable
        monkeypatch.undo()


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
        for values in (coeffs.values, back.values):
            assert values.dtype == complex and not values.flags.writeable


def test_separable_transform_past_the_dense_limit():
    system, kind, ms = E.system_from_selector("a1xa1xa1"), "ee", (12, 12, 12)
    grid = E.build_point_grid(system, kind, ms)
    assert len(grid) > transform.MAX_PHASE_MATRIX_N
    samples = make_samples(system, kind, ms, _random_values(random.Random(19), grid))
    back = inverse_discrete(forward_discrete(samples))
    assert max(abs(a - b) for a, b in zip(back.values, samples.values)) < 1e-9


def _e_cases():
    """The kind ``e`` cases of ``discrete_cases()`` and one larger grid per group (N <= 394)."""
    extra = (("a1xa1", 14), ("a1xa2", 6), ("a1xc2", 7), ("a1xg2", 9), ("a1xa1xa1", 5))
    return [c for c in discrete_cases() if c[1] == "e"] + [
        (E.system_from_selector(sel), "e", (m,)) for sel, m in extra
    ]


def test_torus_fft_matches_the_dense_formulas(monkeypatch):
    monkeypatch.setattr(transform, "FFT_MIN_N", 0)
    rng = random.Random(20)
    for system, kind, ms in _e_cases():
        grid = E.build_point_grid(system, kind, ms)
        p = phase_matrix(system, kind, ms)
        f = np.array(_random_values(rng, grid), dtype=complex)
        want = (p.conj() @ (grid.eps * f)) / normalizers(system, kind, ms)
        coeffs = forward_discrete(make_samples(system, kind, ms, f))
        assert np.abs(coeffs.values - want).max() <= 1e-12 * np.abs(want).max(), (system, ms)
        back = inverse_discrete(E.CoefficientSet(system, kind, ms, coeffs.spectrum, want))
        want_back = p.T @ want
        assert np.abs(back.values - want_back).max() <= 1e-12 * np.abs(want_back).max()
        for values in (coeffs.values, back.values):
            assert values.dtype == complex and not values.flags.writeable


def test_dense_limit_is_checked_on_the_exact_grid_size():
    # |T| / |group| = 4 * 64**2 / 2 = 8 192 passes the estimate; the grid has 8 194 points
    with pytest.raises(E.UsageError) as exc:
        phase_matrix(E.system_from_selector("a1xa1"), "e", (64,))
    assert str(exc.value) == ("a grid of 8194 points is too large for the dense phase matrix; "
                              "the limit is 8192")


#: an ``e`` grid past the dense limit: N = 16 120 points, |T| = 8 * 20**3
PAST_THE_DENSE_LIMIT = ("a1xa1xa1", "e", (20,))


def test_e_transform_past_the_dense_limit(monkeypatch):
    sel, kind, ms = PAST_THE_DENSE_LIMIT
    system = E.system_from_selector(sel)
    grid = E.build_point_grid(system, kind, ms)
    assert len(grid) == 16120 > transform.MAX_PHASE_MATRIX_N
    samples = make_samples(system, kind, ms, _random_values(random.Random(21), grid))

    def refuse(*args):
        raise AssertionError("a phase matrix was built")

    monkeypatch.setattr(transform, "phase_matrix", refuse)
    back = inverse_discrete(forward_discrete(samples))
    assert np.abs(back.values - samples.values).max() < 1e-9


def test_torus_fft_holds_one_box_and_arrays_of_n_entries():
    sel, kind, ms = PAST_THE_DENSE_LIMIT
    system = E.system_from_selector(sel)
    n = len(E.build_point_grid(system, kind, ms))
    box = 16 * abs(system.det_cartan) * math.prod(ms) ** system.n
    samples = make_samples(system, kind, ms, _random_values(random.Random(22), range(n)))
    inverse_discrete(forward_discrete(samples))  # fill the caches
    coeffs, forward_peak = traced_peak(lambda: forward_discrete(samples))
    _, inverse_peak = traced_peak(lambda: inverse_discrete(coeffs))
    # beside the box: an index, the residue columns, the values and the result
    assert max(forward_peak, inverse_peak) <= box + 64 * n


def test_transforms_never_build_the_grid_tuples():
    def f(x):
        return complex(sum(x), x[-1] ** 2)

    for sel, kind, ms in (("a1xg2", "e", (5,)), ("a1xa1xa1", "ee", (7, 6, 6))):
        system = E.system_from_selector(sel)
        grid, spectrum = E.build_point_grid(system, kind, ms), E.build_weight_grid(system, kind, ms)
        values = np.random.default_rng(3).standard_normal(len(grid)) + 1j
        x = grid[len(grid) // 2].point
        with no_grid_items():
            coeffs = forward_discrete(make_samples(system, kind, ms, values))
            back = inverse_discrete(coeffs)
            called = make_samples(system, kind, ms, f)
            at_x = interpolate(coeffs, x)
        assert coeffs.spectrum is spectrum and back.grid is grid and called.grid is grid
        assert np.abs(back.values - values).max() < 1e-9
        assert abs(at_x - values[len(grid) // 2]) < 1e-9
        listed = make_samples(system, kind, ms, [f(gp.point) for gp in grid])
        assert np.array_equal(called.values, listed.values)


def test_sets_hold_the_cached_record():
    system = E.system_from_selector("a1xa2")
    grid, spectrum = E.build_point_grid(system, "e", 2), E.build_weight_grid(system, "e", 2)
    for ms in (2, [2], (2,), np.int64(2)):
        samples = E.SampleSet(system, "e", ms, grid, [0j] * len(grid))
        coeffs = E.CoefficientSet(system, "e", ms, spectrum, [0j] * len(spectrum))
        assert samples.grid is grid and coeffs.spectrum is spectrum
        assert samples.ms == coeffs.ms == (2,) and type(samples.ms) is type(coeffs.ms) is tuple
        assert make_samples(system, "e", ms, [0j] * len(grid)).ms == (2,)
    # a sequence equal to the record item by item is not the record
    for foreign in (None, 5, grid[:-1], tuple(grid)[1:] + tuple(grid)[:1], spectrum,
                    tuple(grid), list(grid)):
        with pytest.raises(E.UsageError, match="sample grid is not the canonical grid"):
            E.SampleSet(system, "e", (2,), foreign, [0j] * len(grid))
    for foreign in (tuple(spectrum), list(spectrum), E.build_weight_grid(system, "e", 3)):
        with pytest.raises(E.UsageError, match="coefficient spectrum is not the canonical"):
            E.CoefficientSet(system, "e", (2,), foreign, [0j] * len(spectrum))
    with pytest.raises(E.UsageError, match="coefficient spectrum is not the canonical"):
        E.CoefficientSet(system, "e", (3,), spectrum, [0j] * len(spectrum))
