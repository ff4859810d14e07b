"""The lattice index and Smith keys of ``eweyl.weyl`` against the Fraction congruences."""

import ast
import math
import pathlib
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eweyl as E
from eweyl.lie_data import mat_transpose
from eweyl.weyl import _SMITH, _smith_key, orbit_indices, smith_form, smith_keys
from conftest import fixed_counts
from reference import canonical_torus_point, torus_congruent, weight_congruent_mod_mq

CASES = [(sel, kind) for sel in E.SUPPORTED_SELECTORS for kind in ("e", "ee")]

#: two primes whose lcm exceeds int64, forcing exact Python-int keys
HUGE_DENOMINATORS = (2**61 - 1, 10**18 + 9)
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 97)


def _points(n):
    """A batch of points; half of the batches hold both huge denominators."""
    coord = st.builds(Q, st.integers(-(10**6), 10**6), st.sampled_from(DENOMINATORS))
    huge = (Q(1, HUGE_DENOMINATORS[0]), Q(-1, HUGE_DENOMINATORS[1])) + (Q(1, 3),) * (n - 2)
    points = st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4)
    return st.tuples(points, st.booleans()).map(lambda pb: pb[0] + [huge] * pb[1])


def _coordinate():
    """An int, a numpy int or a Fraction; numerators reach past int64."""
    big = st.integers(-(2**70), 2**70)
    return st.one_of(
        big,
        st.integers(-(2**62), 2**62).map(np.int64),
        st.builds(Q, big, st.sampled_from(DENOMINATORS + HUGE_DENOMINATORS)),
    )


def _weights(n):
    """A batch of weights; half of the batches hold an entry past int64."""
    weights = st.lists(st.tuples(*[st.integers(-60, 60)] * n), min_size=1, max_size=4)
    huge = (10**19 + 3,) + (-1,) * (n - 1)
    return st.tuples(weights, st.booleans()).map(lambda wb: wb[0] + [huge] * wb[1])


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_torus_orbit_sizes_match_congruence(sel, kind, data):
    system = E.system_from_selector(sel)
    group = E.even_subgroup(system, kind)
    points = data.draw(_points(system.n))
    want = [
        group.order // sum(torus_congruent(system, w.apply_point(x), x) for w in group)
        for x in points
    ]
    # integer rows over the lcm of all denominators, the same on every factor
    lcm = math.lcm(*(Q(v).denominator for x in points for v in x))
    rows = [[int(Q(v) * lcm) for v in x] for x in points]
    fixed = fixed_counts(group, rows, (lcm,) * len(system.factors))
    assert list(group.order // fixed) == want


@pytest.mark.parametrize("sel", E.SUPPORTED_SELECTORS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_point_key_equals_batch_key(sel, data):
    system = E.system_from_selector(sel)
    x = data.draw(st.tuples(*[_coordinate()] * system.n))
    # the batch product of the numerators over the lcm, as nested Python ints
    pairs = [(int(v.numerator), int(v.denominator)) for v in x]
    lcm = math.lcm(*(d for _, d in pairs))
    keys = smith_keys(system, [[a * (lcm // d) for a, d in pairs]], lcm)
    mods = [d for f in system.factors for d in _SMITH[f.kind][2]]
    form = smith_form(system, "e", False)
    assert _smith_key(form, x) == (keys[:, 0].tolist(), lcm * math.lcm(*mods))


@pytest.mark.parametrize("sel", E.SUPPORTED_SELECTORS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_keys_are_the_residues_of_the_lattice_index(sel, data):
    # one integer form: the key of s / L is U s mod L d, whose mixed radix is s's index at L
    system = E.system_from_selector(sel)
    points = data.draw(_points(system.n))
    lcm = math.lcm(*(Q(v).denominator for x in points for v in x))
    rows = [[int(Q(v) * lcm) for v in x] for x in points]
    keys = smith_keys(system, rows, lcm)
    mods = [lcm * d for f in system.factors for d in _SMITH[f.kind][2]]
    # the first array of the walk is the rows' own index, whatever the group
    index = next(orbit_indices(E.even_subgroup(system, "e"), rows, (lcm,) * len(system.factors)))
    for key, want in zip(keys.T.tolist(), index.tolist()):
        assert all(0 <= k < m for k, m in zip(key, mods))
        radix = 0
        for k, m in zip(key, mods):
            radix = radix * m + k
        assert radix == want


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_weight_stabs_match_congruence(sel, kind, data):
    system = E.system_from_selector(sel)
    group = E.even_subgroup(system, kind)
    weights = data.draw(_weights(system.n))
    ms = data.draw(st.tuples(*[st.integers(1, 12)] * len(system.factors)))
    want = [
        sum(weight_congruent_mod_mq(system, w.apply_weight(lam), lam, ms) for w in group)
        for lam in weights
    ]
    assert list(fixed_counts(group, weights, ms, dual=True)) == want


@pytest.mark.parametrize("sel", E.SUPPORTED_SELECTORS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_canonical_torus_point(sel, data):
    system = E.system_from_selector(sel)
    x = data.draw(_points(system.n))[-1]
    z = data.draw(st.tuples(*[st.integers(-5, 5)] * system.n))
    shifted = tuple(a + sum(c * b for c, b in zip(row, z)) for a, row in zip(x, system.cartan))
    canon = canonical_torus_point(system, x)
    assert torus_congruent(system, canon, x)
    assert canonical_torus_point(system, shifted) == canon


@pytest.mark.parametrize("kind", ["a1", "a2", "c2", "g2"])
def test_smith_forms_match_sympy(kind):
    from sympy import Matrix, diag
    from sympy.matrices.normalforms import smith_normal_decomp

    u, vt, d = (Matrix(a) for a in _SMITH[kind])
    cartan = Matrix(E.assemble_system((kind,)).factors[0].cartan)
    assert u * cartan * vt.T == diag(*d)
    assert abs(u.det()) == abs(vt.det()) == 1
    assert diag(*d) == smith_normal_decomp(cartan)[0]


def _moduli(system, kind):
    k = len(system.factors)
    return st.integers(1, 4).map(lambda m: (m,) * k) if kind == "e" else st.tuples(
        *[st.integers(1, 4)] * k)


def _shifted(system, rows, ms, zs, dual):
    """Each row moved by ``M_f C_f z_f`` (``M_f C_f^T z_f`` if ``dual``): the same class."""
    out = []
    for row, z in zip(rows, zs):
        row = list(row)
        for (lo, hi), f, m in zip(system.factor_slices(), system.factors, ms):
            c = mat_transpose(f.cartan) if dual else f.cartan
            for i in range(lo, hi):
                row[i] += m * sum(c[i - lo][j] * z[lo + j] for j in range(hi - lo))
        out.append(tuple(row))
    return out


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_index_classes_match_the_fraction_congruences(sel, kind, data):
    system = E.system_from_selector(sel)
    ms = data.draw(_moduli(system, kind))
    size = abs(system.det_cartan) * math.prod(
        m**f.rank for f, m in zip(system.factors, ms))
    rows = data.draw(st.lists(st.tuples(*[st.integers(-12, 12)] * system.n),
                              min_size=1, max_size=5))
    zs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * system.n),
                            min_size=len(rows), max_size=len(rows)))
    scale = [m for f, m in zip(system.factors, ms) for _ in range(f.rank)]
    for dual in (False, True):
        batch = rows + _shifted(system, rows, ms, zs, dual)
        index = next(orbit_indices(E.even_subgroup(system, kind), batch, ms, dual)).tolist()
        assert all(0 <= k < size for k in index)
        for a, ka in zip(batch, index):
            for b, kb in zip(batch, index):
                if dual:
                    want = weight_congruent_mod_mq(system, a, b, ms)
                else:
                    want = torus_congruent(system, *[tuple(Q(v, m) for v, m in zip(p, scale))
                                                     for p in (a, b)])
                assert (ka == kb) == want


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_grid_images_cover_the_torus_group_once(sel, kind, data):
    system = E.system_from_selector(sel)
    ms = data.draw(_moduli(system, kind))
    group = E.even_subgroup(system, kind)
    grid = E.build_point_grid(system, kind, ms if kind == "ee" else ms[:1])
    # the label parameters: factor f's numerators over M_f instead of the denominator
    scale = [grid.denominator // m for f, m in zip(system.factors, ms) for _ in range(f.rank)]
    params = grid.numerators // np.array(scale)
    # the walk's arrays after the first: one per element, the identity included
    images = np.stack(list(orbit_indices(group, params, ms))[1:])
    size = abs(system.det_cartan) * math.prod(m**f.rank for f, m in zip(system.factors, ms))
    assert set(images.ravel().tolist()) == set(range(size))
    # each point's orbit is its eps distinct images
    assert [len(set(col)) for col in images.T.tolist()] == grid.eps.tolist()


def test_int64_minimum_row_is_indexed_exactly():
    # np.abs(-2**63) is -2**63, which once let the index be computed in int64
    system = E.system_from_selector("a1xa2")
    group = E.even_subgroup(system, "e")
    rows = [(-(2**63), 0, 0), (0, -(2**63), 1)]
    want = orbit_indices(group, rows, (3, 3))  # nested Python ints: exact
    got = orbit_indices(group, np.array(rows, dtype=np.int64), (3, 3))
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


def _plain_indices(group, rows, ms, dual):
    """The walk's arrays in plain Python: the mixed radix of ``(S m s)_i mod M_f d_i``.

    ``S`` is the block-diagonal ``U_f`` of ``_SMITH`` (``V_f^T`` if ``dual``), ``m``
    the identity and then each element's coweight (weight if ``dual``) matrix.
    """
    system = group.system
    s, mods, lo = [], [], 0
    for f, m in zip(system.factors, ms):
        block = _SMITH[f.kind][1 if dual else 0]
        for row, d in zip(block, _SMITH[f.kind][2]):
            s.append([0] * lo + list(row) + [0] * (system.n - lo - len(row)))
            mods.append(m * d)
        lo += f.rank
    identity = [[int(i == j) for j in range(system.n)] for i in range(system.n)]
    matrices = [identity] + [w.weight_matrix if dual else w.coweight_matrix for w in group]
    out = []
    for m in matrices:
        sm = [[sum(a * m[k][j] for k, a in enumerate(row)) for j in range(system.n)] for row in s]
        indices = []
        for r in rows:
            index = 0
            for row, mod in zip(sm, mods):
                index = index * mod + sum(a * v for a, v in zip(row, r)) % mod
            indices.append(index)
        out.append(indices)
    return out, math.prod(mods)


@pytest.mark.parametrize("sel", E.SUPPORTED_SELECTORS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_orbit_indices_are_the_plain_mixed_radix(sel, data):
    system = E.system_from_selector(sel)
    kind = data.draw(st.sampled_from(["e", "ee", "w"]))
    dual = data.draw(st.booleans())
    group = E.even_subgroup(system, kind)
    k = len(system.factors)
    # a modulus of 2**32 + 1 on every factor puts |T| past int64: Python-int indices
    ms = data.draw(st.one_of(st.tuples(*[st.integers(1, 9)] * k), st.just((2**32 + 1,) * k)))
    # entries near 2**62 push S m s past int64, entries past 2**63 need Python ints
    entry = st.one_of(st.integers(-50, 50), st.integers(-(2**62), 2**62),
                      st.integers(-(2**70), 2**70))
    rows = data.draw(st.lists(st.tuples(*[entry] * system.n), min_size=1, max_size=6))
    want, size = _plain_indices(group, rows, ms, dual)
    given_rows = [rows]
    if all(-(2**63) <= v < 2**63 for r in rows for v in r):
        given_rows.append(np.array(rows, dtype=np.int64))
    for r in given_rows:
        got = list(orbit_indices(group, r, ms, dual))
        assert [a.dtype for a in got] == [np.dtype(np.int64 if size < 2**63 else object)] * len(got)
        assert [a.tolist() for a in got] == want


#: the only modules that may name a key or Smith helper
KEY_MODULES = {"weyl.py", "efunc.py"}
KEY_HELPERS = {"smith_form", "smith_keys", "_smith_key", "_smith_residues"}


def _names(tree):
    """Every identifier a module uses: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_residue_keys_stay_inside_weyl_and_efunc():
    # grids and transforms hold numerators; only the orbit-sum kernel keys them
    package = pathlib.Path(E.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert {p.name for p in sources} >= KEY_MODULES | {"grids.py", "transform.py"}
    for path in sources:
        used = set(_names(ast.parse(path.read_text(encoding="utf-8"))))
        # the residue keys of |det C| C^{-1} are gone: one integer form remains
        assert not used & {"adj_cartan", "scaled_torus_keys", "torus_keys"}, path.name
        if path.name != "weyl.py":
            assert "_SMITH" not in used, path.name
        if path.name not in KEY_MODULES:
            assert not used & KEY_HELPERS, path.name


#: names of the orbit-image walks that :func:`eweyl.weyl.orbit_indices` replaced
REMOVED_WALKS = {"fixing_counts", "lattice_indices"}


def test_orbit_images_are_walked_only_in_weyl():
    # one walker: the grids count eps and h on the orbit map that orbit_owner reads
    # from the arrays of orbit_indices, and the continuous transform checks aliasing
    # and reads d from those arrays
    package = pathlib.Path(E.__file__).parent
    for path in sorted(package.glob("*.py")):
        used = set(_names(ast.parse(path.read_text(encoding="utf-8"))))
        assert not used & REMOVED_WALKS, path.name
        if path.name != "weyl.py":
            assert "_smith_residues" not in used, path.name
        if path.name == "transform.py":
            assert "stab_order" not in used, path.name
            assert "orbit_indices" in used, path.name
        if path.name == "grids.py":
            assert "orbit_owner" in used and "orbit_indices" not in used, path.name
