"""The point grid as the cubature of the continuous transform."""

import ast
import hashlib
import inspect
import math
import re
from fractions import Fraction as Q

import numpy as np
import pytest

import eweyl as E
from eweyl import efunc, transform
from eweyl.efunc import _orbit_sum_kernel, orbit_sums, scaled_orbit_sums
from eweyl.grids import MAX_GRID_CELLS, domain_blocks, fraction_rows
from eweyl.lie_data import UsageError, coweight_gram, mat_det
from eweyl.weyl import domain_volume
from eweyl.transform import modulus_power, quadrature_cells
from conftest import traced_peak
from reference import root_coordinates, spectrum_differences, weight_congruent_mod_mq

RESOLUTIONS = range(1, 7)
PAIRS = [(sel, kind) for sel in E.SUPPORTED_SELECTORS for kind in ("e", "ee")]


def _reference_cells(system, kind, n):
    """Grid points in grid order, each weighted ``eps / (|group| prod M^rank)``."""
    ms = (n,) * len(domain_blocks(system, kind))
    scale = E.even_subgroup(system, kind).order * modulus_power(system, kind, ms)
    return [(gp.point, Q(gp.epsilon, scale)) for gp in E.build_point_grid(system, kind, ms)]


@pytest.mark.parametrize("kind", ["e", "ee"])
@pytest.mark.parametrize("sel", E.SUPPORTED_SELECTORS)
def test_cells_match_fraction_reference(sel, kind):
    system = E.system_from_selector(sel)
    metric = math.sqrt(float(mat_det(coweight_gram(system))))
    spectrum = E.enumerate_dominant(system, kind, 2)
    for n in RESOLUTIONS:
        cells = quadrature_cells(system, kind, n)
        ref = _reference_cells(system, kind, n)
        assert len(cells) == len(ref)
        assert repr(list(cells)) == repr([(p, float(w)) for p, w in ref]), (sel, kind, n)
        # the weights share out the coweight volume |det C| / |group| exactly
        group = E.even_subgroup(system, kind)
        assert sum(w for _, w in ref) == Q(abs(system.det_cartan), group.order)
        assert math.isclose(cells.weights.sum() * metric, domain_volume(system, kind),
                            rel_tol=1e-13)
        got = scaled_orbit_sums(system, kind, spectrum, cells.numerators, cells.denominator)
        want = orbit_sums(system, kind, spectrum, [p for p, _ in ref])
        assert np.array_equal(got, want), (sel, kind, n)


def test_phasor_table_and_residue_lookup_agree(monkeypatch):
    system = E.system_from_selector("a1xg2")
    cells = quadrature_cells(system, "e", 5)
    spectrum = E.enumerate_dominant(system, "e", 2)
    tabled = scaled_orbit_sums(system, "e", spectrum, cells.numerators, cells.denominator)
    monkeypatch.setattr(efunc, "_TABLE_MAX", 0)
    looked_up = scaled_orbit_sums(system, "e", spectrum, cells.numerators, cells.denominator)
    assert np.array_equal(tabled, looked_up)


@pytest.mark.parametrize("resolution", [0, 2.5, -2])
def test_bad_resolution_is_refused(resolution):
    a1 = E.assemble_system(("a1",))
    with pytest.raises(UsageError):
        quadrature_cells(a1, "e", resolution)
    with pytest.raises(UsageError):
        E.continuous_coefficients(lambda p: 1.0, a1, "e", weight_bound=1, resolution=resolution)


def _worst_basis_error(system, kind, bound, resolution, mus):
    """Largest ``|c - delta_mu|`` over the transforms of ``Xi_mu``."""
    worst = 0.0
    for mu in mus:
        cc = E.continuous_coefficients(
            lambda p: E.xi(system, kind, mu, p), system, kind,
            weight_bound=bound, resolution=resolution,
        )
        assert tuple(mu) in cc.weights
        worst = max(worst, max(abs(v - (w == tuple(mu))) for w, v in zip(cc.weights, cc.values)))
    return worst


@pytest.mark.parametrize("sel,kind", PAIRS)
def test_continuous_transform_is_exact_on_orbit_sums(sel, kind):
    system = E.system_from_selector(sel)
    mus = E.enumerate_dominant(system, kind, 1)
    assert _worst_basis_error(system, kind, 1, 6, mus) <= 1e-12


def test_aliasing_resolution_is_refused():
    system = E.system_from_selector("a1xg2")
    mus = E.enumerate_dominant(system, "e", 2)
    for resolution in (8, 10):
        with pytest.raises(UsageError, match="aliases"):
            E.continuous_coefficients(lambda p: 1.0, system, "e", weight_bound=2,
                                      resolution=resolution)
    assert _worst_basis_error(system, "e", 2, 11, mus) <= 1e-12


def test_aliasing_is_refused_before_any_cell_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("cells were built")

    monkeypatch.setattr(transform, "quadrature_cells", refuse)
    with pytest.raises(UsageError, match="aliases"):
        E.continuous_coefficients(lambda p: 1.0, E.system_from_selector("a1xg2"), "e",
                                  weight_bound=2, resolution=8)


def test_default_resolution_is_alias_free_and_within_size():
    params = inspect.signature(E.continuous_coefficients).parameters
    bound, resolution = params["weight_bound"].default, params["resolution"].default
    for sel, kind in PAIRS:
        system = E.system_from_selector(sel)
        spectrum = E.enumerate_dominant(system, kind, bound)
        per_factor = (resolution,) * len(system.factors)
        transform._check_alias_free(system, E.even_subgroup(system, kind), spectrum, per_factor)
        assert len(quadrature_cells(system, kind, resolution)) <= MAX_GRID_CELLS


#: sha256 of the alias sweep's outcomes, "ok" or the refusal text, one a line
ALIAS_SWEEP_DIGEST = "641d7ef1e914e113"


def test_alias_check_agrees_with_the_quadratic_definition():
    outcomes = []
    for sel, kind in PAIRS:
        system = E.system_from_selector(sel)
        group = E.even_subgroup(system, kind)
        for bound in range(5):
            spectrum = E.enumerate_dominant(system, kind, bound)
            # the differences in exact root coordinates; only integral ones can alias
            num, den = root_coordinates(system, spectrum_differences(system, group, spectrum))
            roots = (num // den)[(num % den == 0).all(axis=1)]
            for resolution in range(1, 16):
                per_factor = (resolution,) * len(system.factors)
                aliased = (roots % resolution == 0).all(axis=1)
                try:
                    transform._check_alias_free(system, group, spectrum, per_factor)
                except UsageError as e:
                    outcomes.append(str(e))
                    nu = re.search(r"aliases the weight (\(.*\)) to 0", str(e)).group(1)
                    nu = ast.literal_eval(nu)
                    # the named weight is a nonzero difference congruent to 0
                    assert any(nu) and weight_congruent_mod_mq(system, nu, (0,) * system.n,
                                                               per_factor)
                    assert aliased.any(), (sel, kind, bound, resolution)
                else:
                    outcomes.append("ok")
                    assert not aliased.any(), (sel, kind, bound, resolution)
    # which weight a refusal names: the first tie, in canonical element order, of the sort
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest.startswith(ALIAS_SWEEP_DIGEST), digest


def test_alias_check_holds_few_bytes_per_image():
    # 797 526 images: exact ones are formed only for tied neighbours, block by block
    system, kind = E.system_from_selector("a1xa2"), "e"
    group = E.even_subgroup(system, kind)
    spectrum = E.enumerate_dominant(system, kind, 40)
    images = group.order * len(spectrum)

    def outcome(resolution):
        try:
            transform._check_alias_free(system, group, spectrum, (resolution, resolution))
        except UsageError as e:
            return str(e)
        return "ok"

    for resolution, want in ((80, "resolution 80 aliases the weight (0, -160, 80) to 0; raise it"),
                             (200, "ok")):
        got, peak = traced_peak(lambda: outcome(resolution))
        assert got == want
        assert peak <= 48 * images, (resolution, peak / images)


def test_continuous_stabilizers_are_the_exact_stabiliser_orders():
    accepted = 0
    for sel, kind in PAIRS:
        system = E.system_from_selector(sel)
        group = E.even_subgroup(system, kind)
        for bound in range(4):
            for resolution in (2, 3, 5, 8, 12):
                try:
                    cc = E.continuous_coefficients(lambda p: 1.0, system, kind,
                                                   weight_bound=bound, resolution=resolution)
                except UsageError:
                    continue
                accepted += 1
                assert cc.stabilizers == tuple(E.stab_order(group, lam) for lam in cc.weights)
                assert all(type(d) is int for d in cc.stabilizers)
    assert accepted == 134


def test_integrand_is_sampled_in_blocks_of_2_12_cells(monkeypatch):
    # 24**3 = 13 824 cells: f is sampled in blocks of 4 096, the last one cut short
    system, kind, resolution = E.system_from_selector("a1xa1xa1"), "ee", 12
    blocks, points = [], []

    def recorded(numerators, denominator):
        blocks.append(numerators)
        return fraction_rows(numerators, denominator)

    def refuse(*args):
        raise AssertionError("the continuous transform called the orbit-sum kernel")

    def f(p):
        points.append(p)
        return E.xi(system, kind, mu, p)

    monkeypatch.setattr(transform, "fraction_rows", recorded)
    monkeypatch.setattr(transform, "_orbit_sum_kernel", refuse)
    mu = (1, -3, 4)
    cc = E.continuous_coefficients(f, system, kind, weight_bound=4, resolution=resolution)
    cells = quadrature_cells(system, kind, resolution)
    assert [len(b) for b in blocks] == [2**12] * 3 + [1536]
    # the blocks cover the cells once, in order, and f sees the cells in that order
    assert np.array_equal(np.concatenate(blocks), cells.numerators)
    assert points == [p for p, _ in cells]
    assert len(cc.weights) == 729
    assert max(abs(v - (w == mu)) for w, v in zip(cc.weights, cc.values)) <= 1e-12


def test_phase_matrix_blocks_stay_within_2_16_entries(monkeypatch):
    # 1 788 weights: the grid goes in blocks of 2**16 // 1788 = 36 points
    system, kind, ms = E.system_from_selector("a1xa2"), "e", (12,)
    grid = E.build_point_grid(system, kind, ms)
    calls = []

    def recorded(system, kind, weights, lcm):
        sums = _orbit_sum_kernel(system, kind, weights, lcm)

        def block(numerators):
            calls.append((len(weights), numerators))
            return sums(numerators)

        return block

    monkeypatch.setattr(transform, "_orbit_sum_kernel", recorded)
    p = transform.phase_matrix.__wrapped__(system, kind, ms)
    assert p.shape == (1788, 1788) and {n for n, _ in calls} == {1788}
    assert max(len(rows) for _, rows in calls) == 2**16 // 1788
    assert len(calls) == -(-len(grid) // (2**16 // 1788)) > 2
    # the blocks cover the grid once, in order
    assert np.array_equal(np.concatenate([rows for _, rows in calls]), grid.numerators)


#: the continuous workload of the benchmark: (selector, kind, resolution, bound)
BENCHMARK_CASES = [("a1xa2", "e", 32, 1), ("a1xc2", "ee", 32, 1), ("a1xa1xa1", "e", 24, 2)]


@pytest.mark.parametrize("sel, kind, resolution, bound", BENCHMARK_CASES)
def test_continuous_working_memory_stays_within_8_mib(sel, kind, resolution, bound):
    system = E.system_from_selector(sel)
    mu = E.enumerate_dominant(system, kind, bound)[-1]
    E.even_subgroup(system, kind)  # fill the group cache
    cc, peak = traced_peak(lambda: E.continuous_coefficients(
        lambda p: E.xi_closed(system, kind, mu, p), system, kind,
        weight_bound=bound, resolution=resolution))
    assert peak <= 8 * 2**20
    assert max(abs(v - (w == mu)) for w, v in zip(cc.weights, cc.values)) <= 1e-12
