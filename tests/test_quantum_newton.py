"""The quantum Newton loop: exact BKM Hessian, eigendecomposition budget, stall certificate."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmaxent.errors import DomainError, InfeasibleTargetError
from qmaxent.linalg import PAULI_X, PAULI_Y, PAULI_Z, HermitianOperator
from qmaxent.quantum import (
    DensityMatrix,
    QuantumConstraint,
    _bkm_covariance,
    _gibbs_at,
    _spectral_brackets,
    _stack,
    expectation,
    posterior_from_multipliers,
    solve_quantum,
)


def scaled_hermitian(rng, dim):
    # spectrum of order one at every dim
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / (2.0 * np.sqrt(dim))


def gibbs_prior(rng, dim):
    vals, vecs = np.linalg.eigh(scaled_hermitian(rng, dim))
    w = np.exp(vals - vals[-1])
    rho = (vecs * (w / w.sum())) @ vecs.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2.0)


def exact_hessian(prior, observables, alpha):
    return _bkm_covariance(_gibbs_at(prior, observables, alpha), _stack(observables, prior.dim))


def fd_hessian(prior, observables, alpha, h=1e-5):
    """Central differences of the gradient Tr(rho(alpha) A_i), column by column."""
    m = len(observables)

    def means(a):
        rho = posterior_from_multipliers(prior, observables, a)
        return np.array([expectation(rho, o) for o in observables])

    cols = []
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        cols.append((means(alpha + e) - means(alpha - e)) / (2 * h))
    return np.column_stack(cols)


def assert_matches_differences(prior, observables, alpha):
    exact = exact_hessian(prior, observables, alpha)
    fd = fd_hessian(prior, observables, alpha)
    np.testing.assert_allclose(exact, exact.T, rtol=0, atol=1e-15 * np.abs(exact).max())
    assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(exact)


class TestBKMCovariance:
    def test_matches_gradient_differences_on_random_instances(self):
        rng = np.random.default_rng(50)
        for _ in range(12):
            dim = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            prior = gibbs_prior(rng, dim)
            obs = [HermitianOperator(scaled_hermitian(rng, dim)) for _ in range(m)]
            assert_matches_differences(prior, obs, rng.normal(scale=0.8, size=m))

    def test_matches_differences_with_degenerate_spectrum(self):
        # maximally mixed prior and diagonal observables with repeated
        # values: C has exactly equal eigenvalues, where the divided
        # difference takes its limit p_k
        rng = np.random.default_rng(51)
        for dim in (2, 4, 6):
            prior = DensityMatrix(np.eye(dim) / dim)
            obs = [
                HermitianOperator(np.diag(rng.integers(-1, 2, size=dim).astype(float)))
                for _ in range(2)
            ]
            obs.append(HermitianOperator(scaled_hermitian(rng, dim)))
            for alpha in (np.zeros(3), np.array([0.7, -0.4, 0.0]), rng.normal(size=3)):
                assert_matches_differences(prior, obs, alpha)

    def test_fully_degenerate_point_is_plain_covariance(self):
        # at C = ln(I/d) every weight is 1/d, so H_ij = Tr(A_i A_j)/d - <A_i><A_j>
        rng = np.random.default_rng(52)
        dim = 5
        prior = DensityMatrix(np.eye(dim) / dim)
        obs = [HermitianOperator(scaled_hermitian(rng, dim)) for _ in range(3)]
        means = np.array([np.trace(o.matrix).real / dim for o in obs])
        expected = np.array(
            [[np.trace(a.matrix @ b.matrix).real / dim for b in obs] for a in obs]
        ) - np.outer(means, means)
        np.testing.assert_allclose(exact_hessian(prior, obs, np.zeros(3)), expected, atol=1e-14)

    def test_finite_for_widely_spread_spectrum(self):
        # gaps of hundreds would overflow exp(lambda_k) in the textbook
        # divided difference; the kernel form stays finite and PSD
        prior = DensityMatrix(np.eye(3) / 3)
        coupling = np.zeros((3, 3))
        coupling[0, 1] = coupling[1, 0] = 1.0
        obs = [HermitianOperator(np.diag([0.0, 1.0, 2.0])), HermitianOperator(coupling)]
        hess = exact_hessian(prior, obs, np.array([400.0, 0.0]))
        assert np.all(np.isfinite(hess))
        assert np.linalg.eigvalsh(hess)[0] >= -1e-15


def planted_problem(seed, dim, m):
    rng = np.random.default_rng(seed)
    prior = gibbs_prior(rng, dim)
    obs = [HermitianOperator(scaled_hermitian(rng, dim)) for _ in range(m)]
    beta = rng.normal(scale=0.8 / np.sqrt(m), size=m)
    reference = posterior_from_multipliers(prior, obs, beta)
    return prior, [QuantumConstraint(o, expectation(reference, o)) for o in obs], beta


@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
def test_offset_moves_the_bkm_hessian_only_by_rounding(offset):
    # A + cI has the covariance of A. An uncentered Gram product minus
    # <A><A>^T cancels two terms of size c^2 and misses by 2.5e4 eps c at
    # c = 1e4 up to 3.8e8 eps c at c = 1e8 on these problems; centering
    # the rotated diagonals keeps the error under 3 eps c
    rng = np.random.default_rng(7)
    for seed in range(20):
        prior, cons, _ = planted_problem(seed, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        obs = [c.observable for c in cons]
        shifted = [HermitianOperator(o.matrix + offset * np.eye(prior.dim)) for o in obs]
        alpha = np.zeros(len(obs))
        hess = exact_hessian(prior, obs, alpha)
        error = np.abs(exact_hessian(prior, shifted, alpha) - hess).max()
        assert error <= 100 * np.finfo(float).eps * offset * np.abs(hess).max()


def test_eigh_calls_are_one_per_dual_evaluation(monkeypatch):
    # one per line-search trial; this problem takes four full Newton
    # steps, so no halvings add to it. The starting state and the prior's
    # logarithm read the decomposition the prior made at construction
    prior, cons, beta = planted_problem(3, dim=16, m=8)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    spectra = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        spectra.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    report = solve_quantum(prior, cons)
    assert report.converged
    np.testing.assert_allclose(report.multipliers, beta, atol=1e-9)
    assert report.iterations == 4
    assert len(calls) == report.iterations
    # the posterior comes from the last decomposition, and every target is
    # decided by its Rayleigh bracket, with no eigenvalue solve of an observable
    assert len(spectra) == 0


def test_solve_reads_each_observable_matrix_once(monkeypatch):
    # the stack is the one place that reads the observables: the range
    # check and the solve work on it (the per-matrix bracket read them again)
    prior, cons, _ = planted_problem(3, dim=16, m=8)
    reads = []
    matrix = HermitianOperator.matrix.fget
    monkeypatch.setattr(
        HermitianOperator, "matrix", property(lambda self: reads.append(self) or matrix(self))
    )
    assert solve_quantum(prior, cons).converged
    assert len(reads) == len(cons)
    assert {id(op) for op in reads} == {id(c.observable) for c in cons}


class TestStallCertificate:
    """Targets outside the Bloch ball, certified once the Newton iteration stops short.

    alpha runs off toward the face of the Bloch ball nearest the targets,
    where the Hessian turns singular; alpha/|alpha| then separates the
    targets from every state. For both target sets that is found before
    the line search of step 14; on the way, the halvings of one step for
    (0.9, 0.1, 0.9) all fail, where they stalled at |alpha| = 15.7, and
    the damped trials go on.
    """

    @pytest.mark.parametrize(
        "targets, stop",
        [((0.6, 0.6, 0.6), "singular Hessian after 13 iterations"),
         ((0.9, 0.1, 0.9), "singular Hessian after 13 iterations")],
    )
    def test_stalled_search_raises_farkas_certificate(self, targets, stop):
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [
            QuantumConstraint(HermitianOperator(p), t)
            for p, t in zip((PAULI_X, PAULI_Y, PAULI_Z), targets)
        ]
        with pytest.raises(InfeasibleTargetError, match=f"^{stop} at .*Farkas certificate"):
            solve_quantum(prior, cons)

    def test_certificate_is_scale_invariant(self):
        # scaling every observable and target by 1e3 changes nothing in
        # the decision: the certificate compares within one direction
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [
            QuantumConstraint(HermitianOperator(1e3 * p), 1e3 * t)
            for p, t in zip((PAULI_X, PAULI_Y, PAULI_Z), (0.6, 0.6, 0.6))
        ]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_quantum(prior, cons)


class TestDependencyCertificate:
    """Targets that contradict an exact linear dependency among the observables.

    alpha/|alpha| separates nothing: only the Hessian null direction d,
    along which sum_i d_i A_i is a constant, shows the contradiction.
    """

    def test_duplicated_observable_with_consistent_targets_runs_no_certificate(self, monkeypatch):
        # <X> = 0.3 twice: every step is a pseudoinverse step, but the
        # residual has no part along the null direction (1, -1)/sqrt 2, so
        # no early certificate, and no eigvalsh, runs; a call would raise
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        prior = DensityMatrix(np.eye(2) / 2)
        report = solve_quantum(prior, [QuantumConstraint(HermitianOperator(PAULI_X), 0.3)] * 2)
        assert report.converged

    def test_duplicated_observable_with_conflicting_targets_is_infeasible(self):
        # <X> = 0.3 and <X> = 0.5: the parent stalled at alpha = (0.212, 0.212)
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [QuantumConstraint(HermitianOperator(PAULI_X), t) for t in (0.3, 0.5)]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_quantum(prior, cons)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_certificate_is_scale_invariant(self, scale):
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [
            QuantumConstraint(HermitianOperator(scale * PAULI_X), scale * t)
            for t in (0.3, 0.5)
        ]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_quantum(prior, cons)

    def test_combination_with_identity_shift(self):
        # A_3 = A_1 + 2 A_2 + 1 forces <A_3> = <A_1> + 2 <A_2> + 1 = 1.7, not 1.9
        prior = DensityMatrix(np.eye(2) / 2)
        observables = (PAULI_X, PAULI_Z, PAULI_X + 2 * PAULI_Z + np.eye(2))
        cons = [
            QuantumConstraint(HermitianOperator(o), t)
            for o, t in zip(observables, (0.3, 0.2, 1.9))
        ]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_quantum(prior, cons)

    def test_consistent_dependency_still_converges(self):
        prior = DensityMatrix(np.eye(2) / 2)
        observables = (PAULI_X, PAULI_Z, PAULI_X + 2 * PAULI_Z + np.eye(2))
        cons = [
            QuantumConstraint(HermitianOperator(o), t)
            for o, t in zip(observables, (0.3, 0.2, 1.7))
        ]
        report = solve_quantum(prior, cons)
        assert report.converged
        assert expectation(report.posterior, HermitianOperator(PAULI_X)) == pytest.approx(0.3)


@pytest.mark.parametrize("s", [1e-3, 1e-2, 1.0])
def test_small_observable_feasible_target_is_not_called_infeasible(s):
    # the multiplier ln(999)/s is large only because the observable is
    # small; a fixed |alpha| > 1e3 guard called s = 1e-3 infeasible
    prior = DensityMatrix(np.eye(2) / 2)
    report = solve_quantum(prior, [QuantumConstraint(HermitianOperator(np.diag([0.0, s])), 0.999 * s)])
    assert report.converged
    assert report.multipliers[0] * s == pytest.approx(np.log(999.0), rel=1e-6)


@st.composite
def hermitian_matrices(
    draw, dims=st.integers(1, 6), entries=st.floats(-100.0, 100.0, allow_subnormal=False)
):
    """General, diagonal, degenerate and 1 x 1 Hermitian matrices."""
    dim = draw(dims)
    kind = draw(st.sampled_from(["general", "diagonal", "degenerate"]))
    entries = st.lists(entries, min_size=dim * dim, max_size=dim * dim)
    g = np.array(draw(entries)).reshape(dim, dim) + 1j * np.array(draw(entries)).reshape(dim, dim)
    if kind == "general":
        return (g + g.conj().T) / 2.0
    values = np.array(draw(st.lists(st.sampled_from([-3.0, 0.0, 0.5, 2.0]), min_size=dim, max_size=dim)))
    if kind == "diagonal":
        return np.diag(values).astype(complex)
    # repeated eigenvalues in a rotated basis
    q, _ = np.linalg.qr(g + (dim + 1) * np.eye(dim))
    a = (q * values) @ q.conj().T
    return (a + a.conj().T) / 2.0


@st.composite
def scaled_stacks(draw):
    """2 to 4 Hermitian matrices of one dim, each times its own 2^k, k in [-500, 500].

    The entries are multiples of 2^-10 below 2^10, so every scaled entry
    is a normal number and the scaling is exact.
    """
    dims = st.just(draw(st.integers(1, 6)))
    entries = st.integers(-(2**20), 2**20).map(lambda n: n / 2.0**10)
    matrices = draw(st.lists(hermitian_matrices(dims, entries), min_size=2, max_size=4))
    return [2.0 ** draw(st.integers(-500, 500)) * a for a in matrices]


def brackets(matrices):
    """The brackets of equal-dim matrices, stacked as the solver stacks them."""
    dim = len(matrices[0])
    flat = _stack([HermitianOperator(a) for a in matrices], dim)
    return _spectral_brackets(flat, dim)


# the slack |A|_F squared these entries to 0, so the bracket was exactly
# (-x, x), outside eigvalsh's +-8.555204611196906e-163
TINY = 8.555204611196907e-163
# its eigvalsh spectrum is one ulp inside its Rayleigh quotients +-x
TINY_ROTATION = np.array([[0, -1j * TINY], [1j * TINY, 0]])


class TestRayleighBracket:
    @settings(max_examples=300, deadline=None)
    @given(hermitian_matrices())
    @example(TINY_ROTATION)
    def test_bracket_lies_inside_spectral_range(self, a):
        (lo,), (hi,) = brackets([a])
        spec = np.linalg.eigvalsh(a)
        assert spec[0] <= lo
        assert hi <= spec[-1]

    @settings(max_examples=300, deadline=None)
    @given(scaled_stacks())
    @example([2.0**-100 * TINY_ROTATION, 2.0**500 * PAULI_Z])
    @example([2.0**500 * PAULI_Z, 2.0**-100 * TINY_ROTATION, np.eye(2)])
    def test_each_row_takes_its_own_slack(self, matrices):
        # rows whose scales differ by up to 2^1000 in one stack: a slack
        # shared across rows, or taken from another row, is not the one the
        # row takes alone. It closes a small row's bracket, or leaves a large
        # row at its raw quotients, which eigvalsh can find one ulp outside
        # the spectrum (TINY_ROTATION)
        lo, hi = brackets(matrices)
        for a, row_lo, row_hi in zip(matrices, lo, hi):
            assert (row_lo, row_hi) == tuple(x[0] for x in brackets([a]))
            spec = np.linalg.eigvalsh(a)
            assert spec[0] <= row_lo
            assert row_hi <= spec[-1]

    def test_huge_observable_is_checked_without_overflow(self):
        # the slack squared entries near 1e200 for |A|_F and warned of overflow
        observable = HermitianOperator(1e200 * np.array([[1.0, 0.5], [0.5, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleTargetError, match="spectral range"):
                solve_quantum(DensityMatrix(np.eye(2) / 2), [QuantumConstraint(observable, 2e200)])

    def test_observable_near_the_float_range_is_feasible_without_overflow(self):
        # its spectrum is +-1.414e308; the halved sums of the operator and
        # of the bracket's midpoints overflowed, and the solve reported the
        # spectral range (nan, nan). The slack |A|_F then overflowed, so the
        # bracket was (inf, -inf) and an eigvalsh decided the target; the
        # slack from the largest entry decides it in the bracket, so
        # newton_dual takes no spectrum
        observable = HermitianOperator(1e308 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = brackets([observable.matrix])
        assert lo[0] < 0.1 < hi[0]
        # (-1e308, 1e308) pulled in by 16 eps 1e308
        assert -1.5e308 < lo[0] < -0.99e308
        assert 0.99e308 < hi[0] < 1.5e308

    @pytest.mark.parametrize("matrix, target, scale", [
        # spectrum (0, 3e308): the solve warned about 45 times of overflow
        # and returned converged=False after 0 iterations with alpha = 0
        (1.5e308 * np.ones((2, 2)), 1e308, 1.5e308),
        # spectrum (0, 0, 2.1e308), whose bracket (0, 1.4e308) stays finite
        (0.7e308 * np.ones((3, 3)), 1e307, 0.7e308),
        # |A_01| overflows, and the bracket's bounds are NaN
        (np.array([[1.7e308, 1e308 + 1e308j], [1e308 - 1e308j, -1.7e308]]), 0.0, 1.7e308),
    ])
    def test_spectrum_past_the_float_range_is_a_domain_error(self, matrix, target, scale):
        # finite entries, but eigvalsh finds an infinite eigenvalue: the
        # constraint that carries it is named, before any range or solve
        dim = len(matrix)
        constraints = [QuantumConstraint(HermitianOperator(np.eye(dim)), 1.0 + 1e-9),
                       QuantumConstraint(HermitianOperator(matrix), target)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as excinfo:
                solve_quantum(DensityMatrix(np.eye(dim) / dim), constraints)
        message = str(excinfo.value)
        assert message.startswith(
            "constraint 1: the observable's spectrum passes the float range, "
            "its largest |eigenvalue| is "
        )
        assert message.endswith(f" * {scale!r}")

    def test_spectrum_just_inside_the_float_range_passes_the_check(self, monkeypatch):
        # |lambda| <= 2 max|A_jk| may overflow here, so one scaled eigvalsh
        # decides, and finds 1.7e308; the range check then needs no other
        observable = HermitianOperator(0.85e308 * np.ones((2, 2)))
        spectra = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(1) or eigvalsh(a))
        with pytest.raises(InfeasibleTargetError, match=r"^constraint 0: target 1\.75e\+308 "):
            solve_quantum(DensityMatrix(np.eye(2) / 2), [QuantumConstraint(observable, 1.75e308)])
        assert spectra == [1, 1]

    @pytest.mark.parametrize("target", [1.0, -1.0])
    def test_target_at_diagonal_extreme_is_infeasible(self, target):
        # a bracket whose radius kept |A_jj| on its diagonal reached
        # (-2, 2) here and accepted both targets
        prior = DensityMatrix(np.eye(3) / 3)
        observable = HermitianOperator(np.diag([-1.0, 0.3, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleTargetError) as excinfo:
                solve_quantum(prior, [QuantumConstraint(observable, target)])
        assert str(excinfo.value) == (
            f"constraint 0: target {target!r} is not strictly inside "
            f"the spectral range (-1.0, 1.0)"
        )


def test_scaling_observables_and_targets_scales_multipliers_exactly():
    # a power of two s scales every intermediate exactly, so a solve with
    # observables, targets and tol times s takes the same path: multipliers
    # times 1/s and the same outcome, whether it converges, stops short or
    # is certified infeasible (targets drawn inside each spectral range are
    # often jointly infeasible)
    rng = np.random.default_rng(27)

    def outcome(prior, observables, targets, scale):
        cons = [
            QuantumConstraint(HermitianOperator(scale * o), scale * t)
            for o, t in zip(observables, targets)
        ]
        try:
            report = solve_quantum(prior, cons, tol=1e-10 * scale)
        except InfeasibleTargetError as exc:
            return "Farkas" if "Farkas" in str(exc) else "dependency", None
        return report.converged, report.multipliers * scale

    kinds = set()
    for _ in range(40):
        dim, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        prior = gibbs_prior(rng, dim)
        observables = [scaled_hermitian(rng, dim) for _ in range(m)]
        targets = [rng.uniform(*np.linalg.eigvalsh(o)[[0, -1]]) for o in observables]
        s = 2.0 ** int(rng.integers(-10, 11))
        base = outcome(prior, observables, targets, 1.0)
        scaled = outcome(prior, observables, targets, s)
        assert base[0] == scaled[0]
        if base[1] is not None:
            np.testing.assert_array_equal(scaled[1], base[1])
        kinds.add(base[0])
    assert {True, "Farkas"} <= kinds


def test_nan_tol_is_rejected_not_reported_unconverged():
    # max|grad| > nan is False, so the iteration never started and the
    # report said converged=False after 0 iterations
    prior = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        solve_quantum(prior, [QuantumConstraint(HermitianOperator(PAULI_Z), 0.3)], tol=float("nan"))
