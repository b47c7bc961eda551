import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from confsim.material import ElasticityTensor
from confsim.grid_field import Grid
from confsim.elasticity import OutOfDomain
from confsim.reduction3d import (
    RadialLift,
    UniformSpline,
    lift_fields,
    random_shell_points,
    residual_elasticity_3d,
    residual_order_3d,
    sample_frame,
)

from manufactured import (
    A,
    D,
    MAT,
    MISFIT,
    MU0,
    BETA,
    TENSOR,
    make_order_lifts,
    manufactured_lift,
    matched_body,
    rotation_matrix,
    s_hat,
    u_hat,
)


class TestLift:
    def test_axis_point(self):
        lift = manufactured_lift()
        u, s, b = lift_fields(lift, np.array([1.5, 0.0, 0.0]))
        assert u == pytest.approx((u_hat(1.5), 0.0, 0.0))
        assert s == pytest.approx(float(s_hat(1.5)))
        assert b == pytest.approx((matched_body(1.5), 0.0, 0.0))

    def test_rotation_preserves_magnitudes(self):
        lift = manufactured_lift()
        rot = rotation_matrix([1.0, 1.0, 1.0], 0.7)
        rng = np.random.default_rng(20)
        for x in random_shell_points(A, D, 10, rng, margin=0.05):
            u1, s1, _ = lift_fields(lift, x)
            u2, s2, _ = lift_fields(lift, rot @ x)
            assert abs(np.linalg.norm(u1) - np.linalg.norm(u2)) < 1e-12
            assert abs(s1 - s2) < 1e-12

    def test_components_match_formula(self):
        lift = manufactured_lift()
        rng = np.random.default_rng(21)
        for x in random_shell_points(A, D, 10, rng, margin=0.05):
            u, s, b = lift_fields(lift, x)
            r = np.linalg.norm(x)
            assert np.max(np.abs(u - u_hat(r) * x / r)) < 1e-14
            assert abs(s - s_hat(r)) < 1e-14
            assert np.max(np.abs(b - matched_body(r) * x / r)) < 1e-14

    def test_out_of_domain(self):
        lift = manufactured_lift()
        with pytest.raises(OutOfDomain):
            lift_fields(lift, np.array([0.5, 0.0, 0.0]))
        with pytest.raises(OutOfDomain):
            lift_fields(lift, np.array([2.0, 1.0, 0.0]))

    def test_from_frames_reproduces_nodes(self):
        grid = Grid(A, D, 65)
        uf = u_hat(grid.x)
        lift = RadialLift.from_frames(grid, uf, s_hat(grid.x), matched_body(grid.x), TENSOR, MISFIT)
        assert np.max(np.abs(lift.u_hat(grid.x) - uf)) < 1e-14
        assert lift.lam == pytest.approx(MU0 * BETA)

    def test_sample_frame_is_orthonormal(self):
        rng = np.random.default_rng(22)
        for x in random_shell_points(A, D, 10, rng, margin=0.05):
            frame = sample_frame(x)
            assert np.max(np.abs(frame @ frame.T - np.eye(3))) < 1e-14


class TestUniformSpline:
    """The local not-a-knot spline against scipy's ``CubicSpline``, kept here as the oracle."""

    PROFILES = [
        lambda x: np.sin(3.0 * x) + x**2,
        lambda x: np.exp(-x) * np.cos(7.0 * x),
        lambda x: 1.0e3 * np.tanh(5.0 * (x - 1.5)),
    ]

    @staticmethod
    def rel_err(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("n", [4, 5, 65, 129, 2049])
    @pytest.mark.parametrize("profile", range(3))
    def test_matches_cubic_spline(self, n, profile):
        grid = Grid(A, D, n)
        y = self.PROFILES[profile](grid.x)
        spline = UniformSpline.not_a_knot(grid, y)
        oracle = CubicSpline(grid.x, y)
        midpoints = 0.5 * (grid.x[1:] + grid.x[:-1])
        points = np.concatenate([grid.x, midpoints, [A, D]])
        assert self.rel_err(spline(points), oracle(points)) < 1e-12
        assert self.rel_err(spline.derivative()(points), oracle.derivative()(points)) < 1e-12
        for end in (A, D):
            assert abs(spline(end) - oracle(end)) <= 1e-12 * np.max(np.abs(y))

    def test_exact_for_cubics(self):
        grid = Grid(A, D, 9)
        cubic = lambda x: 2.0 * x**3 - x**2 + 0.5
        spline = UniformSpline.not_a_knot(grid, cubic(grid.x))
        r = np.linspace(A, D, 37)
        assert np.max(np.abs(spline(r) - cubic(r))) < 1e-13
        assert np.max(np.abs(spline.derivative()(r) - (6.0 * r**2 - 2.0 * r))) < 1e-12

    def test_scalar_in_scalar_out(self):
        grid = Grid(A, D, 17)
        spline = UniformSpline.not_a_knot(grid, s_hat(grid.x))
        assert np.ndim(spline(1.3)) == 0
        assert float(spline(grid.x[4])) == s_hat(grid.x[4])


class TestElasticityResidual:
    def test_zero_fields(self):
        zero = lambda r: 0.0 * np.asarray(r)
        lift = RadialLift.from_callables(A, D, zero, zero, zero, zero, TENSOR, MISFIT)
        rng = np.random.default_rng(23)
        pts = random_shell_points(A, D, 10, rng, margin=0.1)
        res = residual_elasticity_3d(lift, pts, h3=0.01)
        assert res.max < 1e-12

    def test_manufactured_rate(self):
        lift = manufactured_lift()
        rng = np.random.default_rng(24)
        pts = random_shell_points(A, D, 20, rng, margin=0.15)
        h3s = [0.02, 0.01, 0.005]
        errs = [residual_elasticity_3d(lift, pts, h3).max for h3 in h3s]
        rate = np.polyfit(np.log(h3s), np.log(errs), 1)[0]
        assert rate >= 1.5

    def test_stiffness_perturbation_is_detected(self):
        lift = manufactured_lift()
        perturbed = RadialLift.from_callables(
            A, D, u_hat, lift.u_hat_r, s_hat, matched_body,
            ElasticityTensor(1.1 * TENSOR.entries), MISFIT,
        )
        rng = np.random.default_rng(25)
        pts = random_shell_points(A, D, 20, rng, margin=0.15)
        clean = residual_elasticity_3d(lift, pts, h3=0.01).max
        broken = residual_elasticity_3d(perturbed, pts, h3=0.01).max
        assert broken > 10.0 * clean

    def test_rotation_invariance(self):
        lift = manufactured_lift()
        rot = rotation_matrix([0.3, -1.0, 0.5], 1.1)
        rng = np.random.default_rng(26)
        pts = random_shell_points(A, D, 20, rng, margin=0.15)
        res_a = residual_elasticity_3d(lift, pts, h3=0.01).per_point
        res_b = residual_elasticity_3d(lift, pts @ rot.T, h3=0.01).per_point
        assert np.max(np.abs(res_a - res_b)) < 1e-10


class TestOrderResidual:
    def test_zero_fields(self):
        zero = lambda r: 0.0 * np.asarray(r)
        lift = RadialLift.from_callables(A, D, zero, zero, zero, zero, TENSOR, MISFIT)
        rng = np.random.default_rng(27)
        pts = random_shell_points(A, D, 10, rng, margin=0.1)
        res = residual_order_3d(lift, lift, 1e-3, pts, MAT, h3=0.01)
        assert res.max < 1e-12
        assert res.identity_max < 1e-12

    def test_identity_rate(self):
        lift = manufactured_lift()
        rng = np.random.default_rng(28)
        pts = random_shell_points(A, D, 15, rng, margin=0.15)
        h3s = [0.02, 0.01, 0.005]
        errs = [
            residual_order_3d(lift, lift, 1e-3, pts, MAT, h3).identity_max for h3 in h3s
        ]
        rate = np.polyfit(np.log(h3s), np.log(errs), 1)[0]
        assert rate == pytest.approx(2.0, abs=0.3)

    def test_manufactured_rate(self):
        dt = 1e-3
        lift0, lift1 = make_order_lifts(dt)
        rng = np.random.default_rng(29)
        pts = random_shell_points(A, D, 20, rng, margin=0.15)
        h3s = [0.02, 0.01, 0.005]
        errs = [residual_order_3d(lift0, lift1, dt, pts, MAT, h3).max for h3 in h3s]
        rate = np.polyfit(np.log(h3s), np.log(errs), 1)[0]
        assert rate >= 1.5

    def test_rotation_invariance(self):
        dt = 1e-3
        lift0, lift1 = make_order_lifts(dt)
        rot = rotation_matrix([1.0, 0.2, -0.4], 0.9)
        rng = np.random.default_rng(30)
        pts = random_shell_points(A, D, 20, rng, margin=0.15)
        res_a = residual_order_3d(lift0, lift1, dt, pts, MAT, h3=0.01)
        res_b = residual_order_3d(lift0, lift1, dt, pts @ rot.T, MAT, h3=0.01)
        assert np.max(np.abs(res_a.per_point - res_b.per_point)) < 1e-10
        assert np.max(np.abs(res_a.identity_per_point - res_b.identity_per_point)) < 1e-10

    def test_full_run_residual_decreases_under_refinement(self):
        # lift the last two frames of real runs; the defect is dominated by the
        # gradient regularization, so kappa must shrink along with (h, dt, h3)
        from conftest import make_config
        from confsim.simulator import run
        from confsim.reduction3d import RadialLift

        values = []
        for j in range(3):
            f = 2**j
            cfg = make_config(
                n=(65 - 1) * f + 1, kappa=0.25 / f, dt=2e-4 / f,
                t_end=0.01, save_every=5, amplitude=0.5,
            )
            res = run(cfg)
            traj = res.trajectory
            k = len(traj.times) - 1
            lifts = []
            for idx in (k - 1, k):
                b = cfg.body.evaluate(float(traj.times[idx]), traj.grid)
                lifts.append(
                    RadialLift.from_frames(
                        cfg.grid, traj.u_frames[idx].values, traj.s_frames[idx].values, b, TENSOR, MISFIT
                    )
                )
            dt_frames = float(traj.times[k] - traj.times[k - 1])
            pts = random_shell_points(A, D, 30, np.random.default_rng(55), margin=0.15)
            r = residual_order_3d(lifts[0], lifts[1], dt_frames, pts, cfg.material, 0.02 / f)
            values.append(r.max)
        assert all(b < a for a, b in zip(values, values[1:]))
