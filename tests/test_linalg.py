"""Spectral calculus against independent oracles (series, scipy.linalg)."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from subfactor_geo.errors import BranchCutError, DomainError
from subfactor_geo.linalg import (
    op_norm_within,
    antiherm_defect,
    dagger,
    dump_matrix,
    exp_family,
    herm_defect,
    load_matrix,
    log_unitary_principal,
    nearest_unitary,
    op_norm,
    polar_antihermitian,
    spectral_function,
    unitary_defect,
)


def random_antiherm(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (a - dagger(a)) / 2.0
    return scale * a / max(op_norm(a), 1e-12)


def random_herm(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (a + dagger(a)) / 2.0
    return scale * a / max(op_norm(a), 1e-12)


def taylor_exp(a, terms=30):
    """Series oracle, independent of any diagonalization."""
    acc = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        acc = acc + term
    return acc


def test_exp_matches_taylor_series(rng):
    for n in (2, 3, 5):
        for _ in range(20):
            x = random_antiherm(rng, n, scale=rng.uniform(0.1, 2.0))
            assert op_norm(spectral_function(x, "exp") - taylor_exp(x)) < 1e-12
            h = random_herm(rng, n, scale=rng.uniform(0.1, 2.0))
            assert op_norm(spectral_function(h, "exp") - taylor_exp(h)) < 1e-12


def test_exp_matches_scipy_expm(rng):
    # second, structurally different oracle (Pade vs diagonalization)
    for _ in range(30):
        x = random_antiherm(rng, 4, scale=rng.uniform(0.1, 3.0))
        assert op_norm(spectral_function(x, "exp") - scipy.linalg.expm(x)) < 1e-12


def test_exp_of_antihermitian_is_unitary(rng):
    for _ in range(25):
        x = random_antiherm(rng, 5, scale=rng.uniform(0.1, 10.0))
        assert unitary_defect(spectral_function(x, "exp")) < 1e-13


def test_trig_identities(rng):
    for _ in range(20):
        h = random_herm(rng, 4, scale=rng.uniform(0.1, 3.0))
        c = spectral_function(h, "cos")
        s = spectral_function(h, "sin")
        assert op_norm(c @ c + s @ s - np.eye(4)) < 1e-13
        # sinc(h) h = sin(h)
        assert op_norm(spectral_function(h, "sinc") @ h - s) < 1e-13


def test_sinc_at_zero_is_identity():
    z = np.zeros((3, 3), dtype=complex)
    assert op_norm(spectral_function(z, "sinc") - np.eye(3)) == 0.0


def test_sqrt_squares_back(rng):
    for _ in range(20):
        h = random_herm(rng, 4)
        psd = h @ h  # nonnegative spectrum by construction
        r = spectral_function(psd, "sqrt")
        assert op_norm(r @ r - psd) < 1e-13
        assert herm_defect(r) < 1e-13
        assert np.linalg.eigvalsh(r).min() > -1e-13


def test_sqrt_rejects_negative_spectrum():
    with pytest.raises(DomainError):
        spectral_function(-np.eye(2), "sqrt")


def test_square_map(rng):
    x = random_antiherm(rng, 4)
    assert op_norm(spectral_function(x, "square") - x @ x) < 1e-13


def test_spectral_function_domain_gates(rng):
    with pytest.raises(DomainError):
        spectral_function(np.zeros((2, 3)), "exp")
    with pytest.raises(DomainError):
        # neither Hermitian nor anti-Hermitian
        spectral_function(np.array([[0.0, 1.0], [0.0, 0.0]]), "exp")
    with pytest.raises(DomainError):
        spectral_function(np.eye(2), "tanh")


def test_log_unitary_round_trip(rng):
    for _ in range(25):
        x = random_antiherm(rng, 4, scale=rng.uniform(0.05, 3.0))
        u = spectral_function(x, "exp")
        y = log_unitary_principal(u)
        assert antiherm_defect(y) < 1e-13
        assert op_norm(spectral_function(y, "exp") - u) < 1e-12


def test_log_recovers_generator_below_pi(rng):
    for _ in range(25):
        x = random_antiherm(rng, 4, scale=rng.uniform(0.05, 3.1))
        y = log_unitary_principal(spectral_function(x, "exp"))
        assert op_norm(x - y) < 1e-11


def test_log_branch_cut_raises():
    u = np.diag([np.exp(1j * np.pi), 1.0]).astype(complex)
    with pytest.raises(BranchCutError):
        log_unitary_principal(u)


def test_log_rejects_non_unitary():
    # the 2-D gates return Python bools; `~` on one is deprecated from 3.12 on
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with pytest.raises(DomainError, match=r"^input is not unitary"):
            log_unitary_principal(2.0 * np.eye(3))


def random_unitary_stack(rng, count, n):
    return np.stack(
        [
            spectral_function(random_antiherm(rng, n, scale=rng.uniform(0.05, 3.0)), "exp")
            for _ in range(count)
        ]
    )


@pytest.mark.parametrize("n", [2, 4])
def test_stacked_log_is_bitwise_the_slice_loop(rng, n):
    stack = random_unitary_stack(rng, 6, n)
    # v ⊗ 1₂ has every eigenvalue twice: the clustered case Schur is kept for
    v = spectral_function(random_antiherm(rng, n // 2, scale=1.5), "exp")
    stack[1] = np.kron(v, np.eye(2))
    stack[2] = np.eye(n)
    out = log_unitary_principal(stack)
    loop = np.stack([log_unitary_principal(u) for u in stack])
    assert np.array_equal(out, loop)
    assert op_norm(spectral_function(out[1], "exp") - stack[1]) < 1e-12
    # a (2, 6) stack of stacks gives the same slices
    assert np.array_equal(log_unitary_principal(np.stack([stack, stack]))[1], loop)


def test_log_of_empty_stack_is_empty():
    out = log_unitary_principal(np.zeros((0, 3, 3), dtype=complex))
    assert out.shape == (0, 3, 3)


def test_stacked_log_names_the_non_unitary_slice(rng):
    stack = random_unitary_stack(rng, 4, 3)
    stack[2] = stack[2] * (1.0 + 1e-6)
    defect = f"defect {unitary_defect(stack[2]):.3e} > "
    with pytest.raises(DomainError, match=r"^slice \(2,\) is not unitary") as exc:
        log_unitary_principal(stack)
    assert defect in str(exc.value)
    with pytest.raises(DomainError, match=r"^slice \(1, 0\) is not unitary") as exc:
        log_unitary_principal(stack.reshape(2, 2, 3, 3))
    assert defect in str(exc.value)
    with pytest.raises(DomainError, match=r"^input is not unitary") as exc:
        log_unitary_principal(stack[2])
    assert defect in str(exc.value)


def test_stacked_log_names_the_branch_cut_slice(rng):
    stack = random_unitary_stack(rng, 3, 2)
    stack[1] = np.diag([np.exp(1j * np.pi), 1.0])
    with pytest.raises(BranchCutError) as single:
        log_unitary_principal(stack[1])
    with pytest.raises(BranchCutError, match=r"of slice \(1,\) is within") as exc:
        log_unitary_principal(stack)
    assert exc.value.eigenvalue == single.value.eigenvalue
    assert abs(exc.value.eigenvalue + 1.0) < 1e-12
    assert f"{single.value.eigenvalue:.12f}" in str(exc.value)


@pytest.mark.parametrize("n", [2, 4, 16])
def test_exp_family_matches_spectral_exp(rng, n):
    z = random_antiherm(rng, n)
    ts = np.linspace(0.0, 1.0, 9)
    fam = exp_family(z, ts)
    assert fam.shape == (9, n, n)
    for t, u in zip(ts, fam):
        assert op_norm(u - spectral_function(t * z, "exp")) < 1e-14
    assert unitary_defect(fam).max() < 1e-14
    assert op_norm(fam[0] - np.eye(n)) < 1e-14
    assert exp_family(z, np.array([])).shape == (0, n, n)


def test_exp_family_rejects_non_antihermitian(rng):
    skew = random_antiherm(rng, 3) + 1e-6 * np.eye(3)
    with pytest.raises(DomainError) as exc:
        exp_family(skew, np.linspace(0.0, 1.0, 5))
    assert f"input is not anti-Hermitian (defect {antiherm_defect(skew):.3e})" in str(exc.value)


def test_polar_antihermitian_properties(rng):
    for _ in range(25):
        x = random_antiherm(rng, 5, scale=rng.uniform(0.1, 2.0))
        u, absx = polar_antihermitian(x)
        assert op_norm(u @ absx - x) < 1e-12
        assert antiherm_defect(u) < 1e-13
        assert herm_defect(absx) < 1e-13
        assert np.linalg.eigvalsh(absx).min() > -1e-12
        assert op_norm(u @ absx - absx @ u) < 1e-12
        # -u^2 is the support projection of |x|
        s = -u @ u
        assert op_norm(s @ s - s) < 1e-12
        assert op_norm(s @ absx - absx) < 1e-12
        # |x| agrees with the spectral square root of -x^2
        assert op_norm(absx - spectral_function(-x @ x, "sqrt")) < 1e-12


def test_polar_rejects_hermitian():
    with pytest.raises(DomainError):
        polar_antihermitian(np.eye(2))


def test_nearest_unitary_matches_scipy_polar(rng):
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = a + 4.0 * np.eye(4)  # keep it comfortably invertible
        u = nearest_unitary(a)
        w, _ = scipy.linalg.polar(a)
        assert op_norm(u - w) < 1e-12
        assert unitary_defect(u) < 1e-13


def test_nearest_unitary_fixes_unitaries(rng):
    x = random_antiherm(rng, 4)
    u = spectral_function(x, "exp")
    assert op_norm(nearest_unitary(u) - u) < 1e-13


def test_dump_load_round_trip(rng):
    for shape in ((1, 1), (3, 3), (2, 5)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = load_matrix(dump_matrix(a))
        assert b.shape == a.shape
        assert np.abs(b - a).max() < 1e-15


def test_load_matrix_rejects_bad_text():
    with pytest.raises(DomainError):
        load_matrix("1+2i garbage\n")
    with pytest.raises(DomainError):
        load_matrix("1+0i 2+0i\n3+0i\n")
    with pytest.raises(DomainError):
        load_matrix("")


def test_dump_matrix_rejects_nan():
    a = np.array([[np.nan + 0j]])
    with pytest.raises(DomainError):
        dump_matrix(a)


def test_op_norm_is_largest_singular_value(rng):
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    assert abs(op_norm(a) - np.linalg.svd(a, compute_uv=False).max()) < 1e-13
    assert op_norm(np.zeros((0, 0))) == 0.0


# ---------------------------------------------------------------------------
# stacks and the Frobenius gate


def random_stack(rng, shape, kind):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "herm":
        return (a + dagger(a)) / 2.0
    if kind == "antiherm":
        return (a - dagger(a)) / 2.0
    return a


@pytest.mark.parametrize("n", [2, 4, 16])
def test_stacked_op_norm_is_bitwise_the_slice_loop(rng, n):
    stack = random_stack(rng, (3, 5, n, n), "general")
    norms = op_norm(stack)
    assert norms.shape == (3, 5)
    loop = np.array([[op_norm(stack[i, j]) for j in range(5)] for i in range(3)])
    assert np.array_equal(norms, loop)
    assert isinstance(op_norm(stack[0, 0]), float)
    assert op_norm(np.zeros((4, 0, 0))).shape == (4,)


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("f", ["exp", "cos", "sin", "sinc", "square", "sqrt"])
@pytest.mark.parametrize("kind", ["herm", "antiherm"])
def test_stacked_spectral_function_is_bitwise_the_slice_loop(rng, n, f, kind):
    stack = random_stack(rng, (7, n, n), kind)
    stack[0] = 0.0  # the zero slice reads both ways; it must not split the stack
    if f == "sqrt":
        if kind == "antiherm":
            with pytest.raises(DomainError, match="Hermitian input"):
                spectral_function(stack, f)
            return
        stack = stack @ stack
    out = spectral_function(stack, f)
    loop = np.stack([spectral_function(h, f) for h in stack])
    assert np.array_equal(out, loop)
    # a (2, 7) stack of stacks gives the same slices
    assert np.array_equal(spectral_function(np.stack([stack, stack]), f)[1], loop)


def test_spectral_function_gate_runs_no_svd_on_exact_input(rng, monkeypatch):
    herm = random_stack(rng, (5, 4, 4), "herm")
    anti = random_stack(rng, (5, 4, 4), "antiherm")

    def no_svd(*args, **kwargs):
        raise AssertionError("the Frobenius bounds should settle exact input")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for h in (herm, anti, herm[0], anti[0]):
        spectral_function(h, "exp")


def test_spectral_function_rejects_mixed_stack(rng):
    stack = np.stack([random_herm(rng, 3), random_antiherm(rng, 3)])
    with pytest.raises(DomainError, match="mixes Hermitian and anti-Hermitian"):
        spectral_function(stack, "exp")


def test_domain_errors_report_exact_op_norm_defects(rng):
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex) + random_herm(rng, 2)
    msg = f"defect {herm_defect(bad):.3e}) nor anti-Hermitian (defect {antiherm_defect(bad):.3e})"
    with pytest.raises(DomainError, match=r"^matrix is neither") as exc:
        spectral_function(bad, "exp")
    assert msg in str(exc.value)
    stack = np.stack([random_herm(rng, 2), random_herm(rng, 2), bad])
    with pytest.raises(DomainError, match=r"^slice \(2,\) is neither") as exc:
        spectral_function(stack, "exp")
    assert msg in str(exc.value)

    near = spectral_function(random_antiherm(rng, 3), "exp") * (1.0 + 1e-6)
    with pytest.raises(DomainError) as exc:
        log_unitary_principal(near)
    assert f"defect {unitary_defect(near):.3e}" in str(exc.value)
    skew = random_antiherm(rng, 3) + 1e-6 * np.eye(3)
    with pytest.raises(DomainError) as exc:
        polar_antihermitian(skew)
    assert f"defect {antiherm_defect(skew):.3e}" in str(exc.value)


def _with_singular_values(rng, svals):
    n = len(svals)
    u = spectral_function(random_antiherm(rng, n, scale=2.0), "exp")
    v = spectral_function(random_antiherm(rng, n, scale=2.0), "exp")
    return (u * np.asarray(svals)) @ dagger(v)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    profile=st.sampled_from(["flat", "spike", "random"]),
    log_tol=st.floats(-12.0, 1.0),
    rel=st.sampled_from([-1e-3, -1e-9, -1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12, 1e-9, 1e-3]),
)
def test_frobenius_gate_matches_exact_test(seed, n, profile, log_tol, rel):
    rng = np.random.default_rng(seed)
    tol = 10.0**log_tol
    top = tol * (1.0 + rel)
    if profile == "flat":
        # op-norm at the bound, Frobenius norm sqrt(n) times larger
        svals = np.full(n, top)
    elif profile == "spike":
        # Frobenius norm within roundoff of the op-norm
        svals = np.concatenate([[top], np.full(n - 1, 1e-9 * top)])
    else:
        svals = np.concatenate([[top], top * rng.uniform(0.0, 1.0, n - 1)])
    a = _with_singular_values(rng, svals)
    assert op_norm_within(a, tol) == (op_norm(a) <= tol)
    stack = np.stack([a, 0.5 * a, 2.0 * a, np.zeros_like(a)])
    assert np.array_equal(op_norm_within(stack, tol), op_norm(stack) <= tol)


def test_frobenius_gate_boundary_below_tol_with_frobenius_above(rng):
    tol = 1e-10
    for n in (2, 4, 16):
        a = _with_singular_values(rng, np.full(n, tol * (1.0 - 1e-14)))
        assert op_norm(a) <= tol < np.linalg.norm(a)
        assert op_norm_within(a, tol) is True
        assert op_norm_within(a * (1.0 + 1e-13), tol) is False
