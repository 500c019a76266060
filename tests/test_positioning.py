"""Estimator and error-bound tests.

The analytic Jacobian is validated against central finite differences of the
full measurement model (which re-solves the edge point at every evaluation),
D-NLS against its noiseless fixed point and the Monte-Carlo efficiency
bound, and LLS against exact noiseless recovery.
"""

import math

import numpy as np
import pytest

import scalar_edge
from conftest import Problem, bounds_of, edges_of, ladder, pack, random_positioning_instance
from diffpos.constants import SPEED_OF_LIGHT
from diffpos.channel import SceneGeometry
from diffpos.fap import mean_squared_bandwidth, range_sigma_m
from diffpos.positioning import (
    _CONVERGED,
    _DIVERGED,
    _OUT_OF_ITERATIONS,
    _SINGULAR,
    SingularGeometryError,
    _gauss_newton,
    _model_rows,
    dnls_ladder,
    lls_solve,
    lls_start,
)

RNG = np.random.default_rng(1234)
BETA_SQ = mean_squared_bandwidth(400e6)
# Box of the retry ladder's last rung; every instance's receiver lies inside.
BOUNDS = (np.array([0.0, 0.0, 0.0]), np.array([20.0, 20.0, 15.0]))


def model_ranges(alpha, anchors, table) -> np.ndarray:
    """Diffraction-model ranges, one scalar edge solve per anchor, anchor j
    with edge j (oracle)."""
    return np.array([scalar_edge.approx_diffraction_solution(a, alpha, table, j).path_length
                     for j, a in enumerate(anchors)])


def meas_from_instance(alpha, anchors, table, ranges=None) -> Problem:
    if ranges is None:
        ranges = model_ranges(alpha, anchors, table)
    return Problem(anchors=anchors, ranges=np.asarray(ranges, dtype=float), table=table)


def fd_jacobian(alpha, meas, h=1e-5) -> np.ndarray:
    """Central finite differences of the full model (independent oracle)."""
    out = np.empty((3, len(meas)))
    for i in range(3):
        up = np.array(alpha, dtype=float)
        dn = np.array(alpha, dtype=float)
        up[i] += h
        dn[i] -= h
        out[i] = (model_ranges(up, meas.anchors, meas.table)
                  - model_ranges(dn, meas.anchors, meas.table)) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def test_jacobian_symmetric_configuration_zero_x_partial():
    edge = edges_of(-5.0, 5.0, 10.0, 2.0)
    anchor = np.array([[0.0, 20.0, 4.0]])
    alpha = np.array([0.0, -6.0, 7.0])
    meas = meas_from_instance(alpha, anchor, edge)
    jac = _model_rows(alpha[None], pack([meas]))[1][0]
    assert jac[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_jacobian_matches_finite_differences_random():
    worst = 0.0
    for _ in range(1000):
        alpha, anchors, edges = random_positioning_instance(RNG)
        meas = meas_from_instance(alpha, anchors, edges)
        ranges, analytic, singular = _model_rows(alpha[None], pack([meas]))
        assert not singular.any()
        # The scalar oracle solves the edge by another algorithm, so the
        # ranges agree to roundoff rather than bit for bit.
        expect = model_ranges(alpha, anchors, edges)
        assert np.all(np.abs(ranges[0] - expect) <= 1e-15 * expect)
        numeric = fd_jacobian(alpha, meas)
        worst = max(worst, float(np.max(np.abs(analytic[0] - numeric))))
    assert worst <= 1e-6


def test_jacobian_small_window_limit_matches_unfolded_chain():
    # w -> 0 puts the model edge in the receiver's horizontal plane: the
    # model degenerates to a two-leg Euclidean chain. Oracle: solve the
    # stationary abscissa of that chain in closed form (the unfold), then
    # differentiate p = |tx - q| + |q - rx| symbolically.
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha, anchors, edges = random_positioning_instance(rng, n_anchors=1)
        tiny = edges_of(edges.x1, edges.x2, edges.z_e, 1e-9, edges.rotation, edges.translation)
        meas = meas_from_instance(alpha, anchors, tiny)
        jac = _model_rows(alpha[None], pack([meas]))[1][0, :, 0]

        t = scalar_edge.to_local(tiny, 0, anchors[0])
        r = scalar_edge.to_local(tiny, 0, alpha)
        # Transverse leg distances with the edge at z = z_n.
        a_t = math.hypot(t[1], t[2] - r[2])
        b_t = abs(r[1])
        q = (t[0] * b_t + r[0] * a_t) / (a_t + b_t)
        assert tiny.x1[0] < q < tiny.x2[0]  # generator guarantees interior points
        l_tx = math.sqrt((t[0] - q) ** 2 + t[1] ** 2 + (t[2] - r[2]) ** 2)
        l_rx = math.sqrt((r[0] - q) ** 2 + r[1] ** 2)
        expect_local = np.array([
            (r[0] - q) / l_rx,
            r[1] / l_rx,
            (r[2] - t[2]) / l_tx,
        ])
        expect = tiny.rotation[0].T @ expect_local
        np.testing.assert_allclose(jac, expect, atol=1e-6)


def test_jacobian_endpoint_clamped_consistent_with_fd():
    # Clamped stationary points hold q fixed, so the explicit partials remain
    # exact; verify against finite differences on solidly clamped instances.
    edge = edges_of(-1.0, 1.0, 5.0, 1.5)
    anchor = np.array([[8.0, 12.0, 2.0]])
    alpha = np.array([9.0, -6.0, 4.0])
    meas = meas_from_instance(alpha, anchor, edge)
    analytic = _model_rows(alpha[None], pack([meas]))[1][0]
    numeric = fd_jacobian(alpha, meas)
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)


def test_jacobian_singular_on_edge():
    # With a vanishing window height the model edge passes through the
    # receiver itself, where the receiver-side leg (and the partials) vanish.
    edge = edges_of(-5.0, 5.0, 5.0, 1e-13)
    anchor = np.array([[0.0, 10.0, 2.0]])
    alpha = np.array([0.0, 0.0, 4.0])
    meas = meas_from_instance(alpha, anchor, edge, ranges=[1.0])
    assert _model_rows(alpha[None], pack([meas]))[2].tolist() == [[True]]


# ---------------------------------------------------------------------------
# D-NLS
# ---------------------------------------------------------------------------

def test_dnls_noiseless_recovery_100_instances():
    truths, sets, starts = [], [], []
    for _ in range(100):
        alpha, anchors, edges = random_positioning_instance(RNG)
        sets.append(meas_from_instance(alpha, anchors, edges))
        offset = RNG.uniform(-1.0, 1.0, 3)
        offset *= RNG.uniform(0.0, 2.0) / max(np.linalg.norm(offset), 1e-9)
        truths.append(alpha)
        starts.append(alpha + offset)
    # Plain Gauss-Newton, the ladder's first rung, recovers every instance.
    result = ladder(sets, starts, BOUNDS)
    assert (result.rung == 0).all()
    for alpha, estimate in zip(truths, result.alpha):
        assert np.linalg.norm(estimate - alpha) <= 1e-6


def test_dnls_fixed_point_zero_step():
    alpha, anchors, edges = random_positioning_instance(RNG)
    meas = meas_from_instance(alpha, anchors, edges)
    result = ladder([meas], [alpha], BOUNDS)
    assert (result.rung[0], result.iterations[0]) == (0, 1)
    assert np.linalg.norm(result.alpha[0] - alpha) < 1e-12


def test_dnls_monte_carlo_rmse_tracks_peb():
    rng = np.random.default_rng(2024)
    alpha, anchors, edges = random_positioning_instance(rng)
    snr_db = 16.0
    snr_lin = 10 ** (snr_db / 10)
    sigma = range_sigma_m(BETA_SQ, snr_lin)
    assert sigma <= 0.10

    bound = bounds_of([(alpha, anchors, edges, range(4), np.full(4, snr_lin), BETA_SQ)])[0]
    truth_ranges = model_ranges(alpha, anchors, edges)
    sets = [Problem(anchors, truth_ranges + sigma * rng.standard_normal(4), edges)
            for _ in range(1000)]
    result = ladder(sets, [alpha] * len(sets), BOUNDS)
    assert (result.rung == 0).all()
    sq_errors = np.array([np.sum((estimate - alpha) ** 2) for estimate in result.alpha])
    rmse = math.sqrt(float(np.mean(sq_errors)))
    assert abs(rmse - bound) <= 0.15 * bound
    # Never statistically below the bound.
    se_rmse = float(np.std(sq_errors) / (2 * rmse * math.sqrt(len(sq_errors))))
    assert rmse >= bound - 3 * se_rmse


def test_dnls_rejects_degenerate_vertical_geometry():
    # Every anchor shares the receiver's abscissa with symmetric edges, so the
    # x-partial row vanishes identically.
    edges = edges_of(np.full(4, 3.0), 7.0, 6.0, 2.0)
    anchors = np.array([[5.0, y, z]
                        for y, z in ((12.0, 2.0), (15.0, 3.0), (18.0, 4.0), (21.0, 5.0))])
    alpha = np.array([5.0, -4.0, 5.0])
    meas = meas_from_instance(alpha, anchors, edges)
    start = alpha + np.array([0.0, 0.5, 0.5])
    out = _gauss_newton(pack([meas]), start[None], np.array([50]), np.zeros(1), 1e-6,
                        np.zeros(1, dtype=int))
    assert out.status[0] == _SINGULAR


def test_dnls_requires_four_anchors():
    alpha, anchors, edges = random_positioning_instance(RNG)
    with pytest.raises(ValueError, match="at least 4 anchors"):
        dnls_ladder(edges, anchors[:3], [[0, 1, 2]], [np.ones(3) * 30], [alpha], BOUNDS)


def test_dnls_far_init_is_reported_not_silent():
    alpha, anchors, edges = random_positioning_instance(RNG)
    meas = meas_from_instance(alpha, anchors, edges)
    start = alpha + np.array([4000.0, -3000.0, 2000.0])
    out = _gauss_newton(pack([meas]), start[None], np.array([20]), np.zeros(1), 1e-6,
                        np.zeros(1, dtype=int))
    if out.status[0] == _CONVERGED:
        # If it converged it must have converged to the right place.
        assert np.linalg.norm(out.alpha[0] - alpha) <= 1e-5
    else:
        assert out.status[0] in (_OUT_OF_ITERATIONS, _SINGULAR, _DIVERGED)


# ---------------------------------------------------------------------------
# LLS
# ---------------------------------------------------------------------------

def test_lls_exact_recovery_on_los_ranges():
    anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    truth = np.array([3.0, 4.0, 5.0])
    ranges = np.linalg.norm(anchors - truth, axis=1)
    est = lls_solve(anchors, ranges)
    assert np.linalg.norm(est - truth) <= 1e-9


def test_lls_biased_on_diffraction_ranges():
    alpha, anchors, edges = random_positioning_instance(RNG)
    diffraction_ranges = model_ranges(alpha, anchors, edges)
    err = np.linalg.norm(lls_solve(anchors, diffraction_ranges) - alpha)
    assert err > 0.01  # model mismatch leaves a strictly positive error


def test_lls_rejects_coplanar_anchors():
    anchors = np.array([[0.0, 0.0, 2.0], [10.0, 0.0, 2.0], [0.0, 10.0, 2.0], [10.0, 10.0, 2.0]])
    with pytest.raises(SingularGeometryError):
        lls_solve(anchors, np.full(4, 12.0))


def test_lls_rejects_duplicate_anchors():
    anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    with pytest.raises(SingularGeometryError):
        lls_solve(anchors, np.full(4, 12.0))


def per_problem_lls(anchors, ranges):
    """The one-problem LLS body: squared ranges differenced against the
    first anchor, then one lstsq call."""
    x0, r0 = anchors[0], ranges[0]
    b = r0 ** 2 - ranges[1:] ** 2 + np.sum(anchors[1:] ** 2, axis=1) - float(x0 @ x0)
    return np.linalg.lstsq(2.0 * (anchors[1:] - x0), b, rcond=None)[0]


@pytest.mark.parametrize("m", [4, 5, 8, 12])
def test_lls_solve_equals_per_problem_lstsq_bit_for_bit(m):
    # Anchors around a building, receivers inside it, ranges with metre-level
    # errors: K problems in one call give each problem's own solution.
    rng = np.random.default_rng(m)
    anchors = rng.uniform([-10.0, -40.0, 0.0], [40.0, 60.0, 25.0], (m, 3))
    truths = rng.uniform([0.0, 0.0, 0.0], [30.0, 20.0, 21.0], (200, 3))
    ranges = np.linalg.norm(anchors - truths[:, None], axis=2) + rng.normal(0.0, 1.0, (200, m))
    got = lls_solve(anchors, ranges)
    assert got.shape == (200, 3)
    assert np.array_equal(got, np.array([per_problem_lls(anchors, r) for r in ranges]))
    assert np.array_equal(lls_solve(anchors, ranges[7]), got[7])
    assert lls_solve(anchors, ranges.reshape(20, 10, m)).shape == (20, 10, 3)
    with pytest.raises(ValueError, match="do not match"):
        lls_solve(anchors, ranges[:, 1:])


# ---------------------------------------------------------------------------
# Position error bound
# ---------------------------------------------------------------------------

def test_peb_snr_scaling():
    alpha, anchors, edges = random_positioning_instance(RNG)
    snr = np.array([10.0, 20.0, 15.0, 12.0])
    base, doubled = bounds_of([(alpha, anchors, edges, range(4), snr, BETA_SQ),
                               (alpha, anchors, edges, range(4), 2 * snr, BETA_SQ)])
    assert doubled == pytest.approx(base / math.sqrt(2), rel=1e-12)


def test_peb_single_anchor_singular():
    alpha, anchors, edges = random_positioning_instance(RNG)
    result = bounds_of([(alpha, anchors[:1], edges, [0], np.array([10.0]), BETA_SQ)])[0]
    assert result == math.inf


def test_peb_anchor_relabeling_invariance():
    alpha, anchors, edges = random_positioning_instance(RNG)
    snr = np.array([10.0, 20.0, 15.0, 12.0])
    perm = [2, 0, 3, 1]
    base, permuted = bounds_of([
        (alpha, anchors, edges, range(4), snr, BETA_SQ),
        (alpha, anchors[perm], edges, perm, snr[perm], BETA_SQ)])
    assert permuted == pytest.approx(base, rel=1e-12)


def test_peb_rigid_rotation_invariance():
    alpha, anchors, edges = random_positioning_instance(RNG)
    snr = np.array([10.0, 20.0, 15.0, 12.0])
    base = bounds_of([(alpha, anchors, edges, range(4), snr, BETA_SQ)])[0]

    theta = 0.7
    rot = np.array([
        [math.cos(theta), -math.sin(theta), 0.0],
        [math.sin(theta), math.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    shift = np.array([3.0, -8.0, 2.0])
    frames = edges.rotation @ rot.T
    moved_edges = edges_of(*edges[2:], rotation=frames,
                           translation=edges.translation - frames @ shift)
    moved = bounds_of([(rot @ alpha + shift, (anchors @ rot.T) + shift, moved_edges, range(4),
                        snr, BETA_SQ)])[0]
    assert moved == pytest.approx(base, rel=1e-9)


def test_peb_matches_monte_carlo_covariance_trace():
    # Complement to the RMSE test: 4-anchor reference geometry, the bound
    # equals the efficient-regime error within Monte-Carlo resolution.
    rng = np.random.default_rng(77)
    alpha, anchors, edges = random_positioning_instance(rng)
    snr_lin = np.full(4, 10 ** (1.8))
    sigma = range_sigma_m(BETA_SQ, float(snr_lin[0]))
    bound = bounds_of([(alpha, anchors, edges, range(4), snr_lin, BETA_SQ)])[0]
    truth = model_ranges(alpha, anchors, edges)
    sets = [Problem(anchors, truth + sigma * rng.standard_normal(4), edges)
            for _ in range(500)]
    result = ladder(sets, [alpha] * len(sets), BOUNDS)
    assert (result.rung == 0).all()
    errs = [np.sum((estimate - alpha) ** 2) for estimate in result.alpha]
    rmse = math.sqrt(float(np.mean(errs)))
    assert abs(rmse - bound) <= 0.15 * bound


def test_dnls_rmse_nonincreasing_in_snr():
    rng = np.random.default_rng(31)
    alpha, anchors, edges = random_positioning_instance(rng)
    truth = model_ranges(alpha, anchors, edges)
    rmses = []
    for snr_db in (10.0, 16.0, 22.0):
        sigma = range_sigma_m(BETA_SQ, 10 ** (snr_db / 10))
        sets = [Problem(anchors, truth + sigma * rng.standard_normal(4), edges)
                for _ in range(300)]
        # Plain Gauss-Newton, converged or not: at 10 dB a third of the sets
        # leave the ladder's first rung, and a few every rung.
        out = _gauss_newton(pack(sets), np.tile(alpha, (300, 1)), np.full(300, 50),
                            np.zeros(300), 1e-6, np.arange(300))
        assert not np.isin(out.status, (_SINGULAR, _DIVERGED)).any()
        errs = np.sum((out.alpha - alpha) ** 2, axis=1)
        rmses.append(math.sqrt(float(np.mean(errs))))
    assert rmses[0] > rmses[1] > rmses[2]


def test_mismatch_direction_between_estimators():
    # All-diffraction measurement sets favor D-NLS; all-direct sets favor LLS.
    rng = np.random.default_rng(32)
    bounds = ((-5, -30, 0), (35, 50, 21))
    n = 40
    truths, diffraction_sets, euclid_sets = [], [], []
    for _ in range(n):
        alpha, anchors, edges = random_positioning_instance(rng)
        geom = SceneGeometry([], edges, None)
        diffraction_ranges = [geom.diffractions(anchor, alpha).length[j]
                              for j, anchor in enumerate(anchors)]
        euclid_ranges = np.linalg.norm(anchors - alpha, axis=1)
        truths.append(alpha)
        for sets, ranges in ((diffraction_sets, diffraction_ranges), (euclid_sets, euclid_ranges)):
            sets.append(Problem(anchors, ranges, edges))

    def errors(sets):
        """(D-NLS, LLS) position error per set. D-NLS starts at the clamped
        LLS estimate and takes the retry ladder's estimate, as a sweep does."""
        lls = [lls_solve(meas.anchors, meas.ranges) for meas in sets]
        dnls = ladder(sets, lls_start(np.array(lls), bounds), bounds)
        assert (dnls.rung >= 0).all()
        return [(np.linalg.norm(estimate - alpha), np.linalg.norm(est - alpha))
                for estimate, est, alpha in zip(dnls.alpha, lls, truths)]

    dnls_wins = sum(err_dnls < err_lls for err_dnls, err_lls in errors(diffraction_sets))
    lls_wins = sum(err_lls < err_dnls for err_dnls, err_lls in errors(euclid_sets))
    # Medians over instances: each model wins on its own measurement family.
    assert dnls_wins > n // 2
    assert lls_wins > n // 2


# ---------------------------------------------------------------------------
# D-NLS start
# ---------------------------------------------------------------------------

def test_initial_guess_uses_clamped_lls():
    anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    truth = np.array([3.0, 4.0, 5.0])
    ranges = np.linalg.norm(anchors - truth, axis=1)
    guess = lls_start(lls_solve(anchors, ranges), BOUNDS)
    np.testing.assert_allclose(guess, truth, atol=1e-9)

    # A solution outside the bounds gets clamped onto the box.
    truth_out = np.array([25.0, 4.0, 5.0])
    ranges = np.linalg.norm(anchors - truth_out, axis=1)
    guess = lls_start(lls_solve(anchors, ranges), BOUNDS)
    assert guess[0] == 20.0


def test_initial_guess_centroid_fallback():
    # Coplanar anchors make LLS singular; the start is then the centroid.
    anchors = np.array([[0.0, 0.0, 2.0], [10.0, 0.0, 2.0], [0.0, 10.0, 2.0], [10.0, 10.0, 2.0]])
    with pytest.raises(SingularGeometryError):
        lls_solve(anchors, np.full(4, 12.0))
    guess = lls_start(None, BOUNDS)
    np.testing.assert_allclose(guess, [10.0, 10.0, 7.5])


def test_initial_guess_rejects_three_anchors():
    # Too few anchors is a caller error, not a singular geometry: it must not
    # turn into the centroid start.
    anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    with pytest.raises(ValueError, match="at least 4 anchors") as err:
        lls_solve(anchors, np.full(3, 12.0))
    assert not isinstance(err.value, SingularGeometryError)
