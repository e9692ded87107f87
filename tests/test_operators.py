import ast
import importlib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxconf import NonHermitianError, NotPSDError, operators, opnorm
from maxconf.operators import eig_hermitian, numerical_rank, psd_power, require_hermitian
from conftest import failing_lapack


def _random_hermitian_stack(rng, n, d):
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return g + g.conj().swapaxes(1, 2)


def _reconstruct(w, v):
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def test_require_hermitian_symmetrizes_roundoff():
    a = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]])
    out = require_hermitian(a)
    assert np.allclose(out, out.conj().T)


def test_require_hermitian_rejects_skew():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NonHermitianError):
        require_hermitian(a)


def test_require_hermitian_rejects_non_square():
    with pytest.raises(NonHermitianError, match=r"rho must be square, got shape \(2, 3\)"):
        require_hermitian(np.ones((2, 3)), "rho")
    with pytest.raises(NonHermitianError, match=r"must be square, got shape \(3,\)"):
        require_hermitian(np.ones(3))


def test_hermitian_part_halves_first_and_keeps_every_bit():
    # halving is exact in the normal range, so 0.5 a + (0.5 a)^dagger is
    # bitwise 0.5 (a + a^dagger) there, and it stays finite for every finite
    # a, where a + a^dagger may overflow
    rng = np.random.default_rng(48)
    shape = (6, 4, 4)
    a = (10.0 ** rng.uniform(-150, 150, shape)) * np.exp(2j * np.pi * rng.uniform(size=shape))
    assert np.array_equal(operators.hermitian_part(a), 0.5 * (a + a.conj().swapaxes(-1, -2)))
    huge = np.array([[1e308, 1.5e308j], [-1.5e308j, 1.7e308]])
    assert np.array_equal(operators.hermitian_part(huge), huge)


def test_eig_hermitian_ascending_and_reconstructs():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = g + g.conj().T
    w, v = eig_hermitian(a)
    assert np.all(np.diff(w) >= -1e-12)
    assert opnorm(_reconstruct(w, v) - a) < 1e-10


def test_psd_power_square_root():
    a = np.diag([4.0, 1.0]).astype(complex)
    r = psd_power(a, 0.5)
    assert np.allclose(r, np.diag([2.0, 1.0]))
    assert np.allclose(r @ r, a)


def test_psd_power_negative_exponent_is_support_restricted():
    a = np.diag([4.0, 0.0]).astype(complex)
    inv_sqrt = psd_power(a, -0.5)
    assert np.allclose(inv_sqrt, np.diag([0.5, 0.0]))
    # sandwiching recovers the support projector, not the identity
    assert np.allclose(inv_sqrt @ a @ inv_sqrt, np.diag([1.0, 0.0]))


def test_psd_power_rejects_negative_input():
    with pytest.raises(NotPSDError):
        psd_power(np.diag([1.0, -1.0]), 0.5)


def test_support_projector_and_rank():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = g @ g.conj().T
    p = psd_power(a, 0.0)
    assert numerical_rank(np.linalg.eigvalsh(p), 0.5) == 2
    assert opnorm(p @ p - p) < 1e-10
    assert opnorm(p @ a - a) < 1e-10


def test_opnorm_matches_largest_singular_value():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert opnorm(a) == pytest.approx(2.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_eig_hermitian_property(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = g + g.conj().T
    w, v = eig_hermitian(a)
    assert opnorm(_reconstruct(w, v) - a) < 1e-9
    assert opnorm(v.conj().T @ v - np.eye(dim)) < 1e-9
    assert np.all(np.diff(w) >= -1e-12)


@pytest.mark.parametrize("dim", range(1, 9))
def test_eig_hermitian_stack_matches_column_loop(dim):
    rng = np.random.default_rng(100 + dim)
    stack = _random_hermitian_stack(rng, 6, dim)
    ws, vs = eig_hermitian(stack)
    assert ws.shape == (6, dim) and vs.shape == (6, dim, dim)
    for a, w, v in zip(stack, ws, vs):
        ref_w, ref_v = np.linalg.eigh(a)
        assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v)
        single_w, single_v = eig_hermitian(a)
        assert np.array_equal(single_w, w) and np.array_equal(single_v, v)


def test_eig_hermitian_stack_rejects_one_skew_matrix():
    rng = np.random.default_rng(13)
    stack = _random_hermitian_stack(rng, 3, 4)
    stack[2, 0, 1] += 1e-6
    with pytest.raises(NonHermitianError):
        eig_hermitian(stack)
    eig_hermitian(stack[:2])


@pytest.mark.parametrize("shape", [(7, 3, 3), (2, 4, 5, 5), (6, 2, 4)])
def test_opnorm_of_a_stack_is_one_norm_per_matrix(shape):
    rng = np.random.default_rng(17)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = opnorm(a)
    assert got.shape == shape[:-2]
    want = np.linalg.norm(a, 2, axis=(-2, -1))
    assert np.max(np.abs(got - want) / want) <= 1e-14
    assert opnorm(np.zeros((0, 3, 3))).shape == (0,)


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("check", [require_hermitian, eig_hermitian, lambda a: psd_power(a, 0.5)],
                         ids=["require_hermitian", "eig_hermitian", "psd_power"])
def test_nan_matrix_is_not_hermitian(check, stacked):
    # a NaN deviation fails every comparison, so "dev > TOL_HERM" let it through
    a = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    if stacked:
        a = np.stack([np.eye(2), a, np.eye(2)]).astype(complex)
    with pytest.raises(NonHermitianError):
        check(a)


def test_psd_power_stack_rejects_one_negative_matrix():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    stack = g @ g.conj().swapaxes(1, 2)
    roots = psd_power(stack, 0.5)
    for a, r in zip(stack, roots):
        assert opnorm(r - psd_power(a, 0.5)) < 1e-12
    stack[1] -= 2.0 * np.linalg.eigvalsh(stack[1])[-1] * np.eye(4)
    with pytest.raises(NotPSDError):
        psd_power(stack, 0.5)


def _count_above(spectrum, cut):
    # brute force: one comparison per entry
    return sum(1 for x in spectrum if x > cut)


def test_numerical_rank_matches_a_brute_force_count():
    # entries and cuts on one small grid, so ties with the cut, zeros, and
    # spectra with every entry dropped or kept all occur
    rng = np.random.default_rng(12)
    w = np.sort(rng.integers(-1, 4, size=(40, 3, 5)).astype(float) / 2.0, axis=-1)
    cut = rng.integers(-2, 5, size=(40, 3)).astype(float) / 2.0
    counts = numerical_rank(w, cut)
    assert counts.shape == (40, 3)
    assert counts.tolist() == [[_count_above(s, c) for s, c in zip(ws, cs)] for ws, cs in zip(w, cut)]
    assert [numerical_rank(s, c) for s, c in zip(w[0], cut[0])] == counts[0].tolist()
    assert {0, 5} <= set(counts.ravel().tolist())  # all dropped and all kept both occurred
    assert np.any(w == cut[..., None])  # and a tie with the cut


@pytest.mark.parametrize("w, cut, rank", [
    ([0.0, 1e-7, 1.0], 1e-7, 1),  # an entry exactly at the cut is dropped
    ([0.0, 0.0, 0.0], 0.0, 0),  # zeros are not above a zero cut
    ([0.0, 0.0, 2.0], 0.0, 1),
    ([-1.0, 0.5, 2.0], 2.0, 0),  # all dropped
    ([-1.0, 0.5, 2.0], -1.5, 3),  # all kept
    ([-3.0, -2.0], -2.5, 1),  # the entries are compared as given, not by magnitude
])
def test_numerical_rank_of_hand_built_spectra(w, cut, rank):
    assert numerical_rank(np.array(w), cut) == rank
    assert numerical_rank(np.array(w), np.float64(cut)) == rank


def test_numerical_rank_cuts_each_spectrum_of_a_stack_at_its_own_cut():
    w = np.tile([1.0, 2.0, 3.0], (4, 1))
    assert numerical_rank(w, np.array([0.5, 1.0, 2.5, 3.0])).tolist() == [3, 2, 1, 0]
    # one spectrum gives an int, a stack (even of one) an integer array
    one = numerical_rank(w[0], 1.5)
    assert type(one) is int and one == 2
    stack = numerical_rank(w[:1], np.array([1.5]))
    assert isinstance(stack, np.ndarray) and stack.shape == (1,) and stack.dtype.kind == "i"


def test_support_projector_is_power_zero():
    a = np.diag([4.0, 1e-12, 0.0]).astype(complex)
    assert np.array_equal(psd_power(a, 0.0), np.diag([1.0, 0.0, 0.0]))


def test_thresholds_are_named_in_operators():
    # every numerical threshold lives in the table of operators.py; a small
    # float literal anywhere else is a threshold that went around it
    package = Path(__file__).resolve().parents[1] / "src" / "maxconf"
    stray = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(package.glob("*.py")) if path.name != "operators.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= 1e-6
    ]
    assert stray == []


def test_every_threshold_in_the_table_is_read():
    # a constant of operators.py's tolerance table that no code reads is a
    # threshold left behind by the check it served
    package = Path(__file__).resolve().parents[1] / "src" / "maxconf"
    table = ast.parse((package / "operators.py").read_text(encoding="utf-8"))
    names = {target.id for node in table.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name) and target.id.isupper()}
    read = {node.id for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert len(names) > 10 and sorted(names - read) == []


def test_support_cutoff_routes_stay_out_of_the_solvers():
    # geometry cuts rho's support at the rounding floor once; a call to the
    # SUPPORT_RTOL-cut helpers downstream of it would decide that support a
    # second time. No module but operators.py may name them, not even to
    # re-export them or list them in __all__
    names = {"eig_hermitian", "psd_power", "SUPPORT_RTOL"}
    package = Path(__file__).resolve().parents[1] / "src" / "maxconf"
    stray = []
    for path in sorted(package.glob("*.py")):
        if path.name == "operators.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in names:
                stray.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    assert stray == []


@pytest.mark.parametrize("name, call", [("_eigh", eig_hermitian), ("_eigvalsh", opnorm)],
                         ids=["eig_hermitian", "opnorm"])
def test_operators_raise_numpys_error_when_lapack_fails(name, call, monkeypatch):
    # a LAPACK routine that does not converge returns NaN and raises the
    # invalid flag; eigh (under eig_hermitian) and spectra (under opnorm)
    # raise numpy.linalg's LinAlgError with its message, warn nothing and
    # leave numpy's error state as it was
    monkeypatch.setattr(operators, name, failing_lapack(getattr(operators, name)))
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            call(np.diag([2.0, 1.0, 0.5]).astype(complex))
    assert np.geterr() == state


def test_lapack_routes_stay_in_operators():
    # every eigh, eigvalsh and SVD goes through operators.py's gufunc
    # partials, whose callers keep numpy's failure semantics (_converged);
    # no other module may name numpy.linalg's eigh, eigvalsh or svd, nor the
    # gufunc module itself
    names = {"eigh", "eigvalsh", "svd"}
    package = Path(__file__).resolve().parents[1] / "src" / "maxconf"
    stray = []
    for path in sorted(package.glob("*.py")):
        if path.name == "operators.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                owner = node.value
                linalg = getattr(owner, "attr", getattr(owner, "id", None)) == "linalg"
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "numpy.linalg._linalg"):
                linalg = any(alias.name in names for alias in node.names)
            else:
                linalg = False
            named = isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and "_umath_linalg" in (
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            if linalg or named:
                stray.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert stray == []


def test_every_traced_function_resolves():
    # perfbench/tracing.py wraps these functions by module and name; one that
    # moved or was renamed would otherwise show only in a traced bench run
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    missing = [f"{module}.{name}" for module, names in traced.values() for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert len(traced) > 5 and missing == []
