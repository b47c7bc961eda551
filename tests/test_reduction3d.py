import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from confsim.config import parse_config_text
from confsim.material import ElasticityTensor, double_well
from confsim.grid_field import Grid
from confsim.elasticity import OutOfDomain
from confsim.simulator import Simulation
from confsim.reduction3d import (
    RadialLift,
    UniformSpline,
    lift_fields,
    random_shell_points,
    residual_elasticity_3d,
    residual_order_3d,
    sample_frame,
)

from conftest import make_config
from manufactured import (
    A,
    D,
    MAT,
    MISFIT,
    TENSOR,
    make_order_lifts,
    manufactured_lift,
    matched_body,
    rotation_matrix,
    s_hat,
    u_hat,
)


def reference_residual_elasticity_3d(lift, points, h3):
    """The balance residual one sample point at a time, each derivative a loop over the frame's rows."""

    def displacement(y):
        r = np.linalg.norm(y)
        return float(lift.u_hat(r)) * (y / r)

    def grad_u(y, frame):
        grad = np.zeros((3, 3))
        for k in range(3):
            dv = (displacement(y + h3 * frame[k]) - displacement(y - h3 * frame[k])) / (2.0 * h3)
            grad += np.outer(dv, frame[k])
        return grad

    def stress(y, frame):
        grad = grad_u(y, frame)
        eps = 0.5 * (grad + grad.T)
        return lift.tensor.apply(eps - lift.misfit.entries * float(lift.s_hat(np.linalg.norm(y))))

    norms = np.zeros(len(points))
    for idx, x in enumerate(points):
        frame = sample_frame(x)
        div = np.zeros(3)
        for k in range(3):
            dt_mat = (stress(x + h3 * frame[k], frame) - stress(x - h3 * frame[k], frame)) / (2.0 * h3)
            div += dt_mat @ frame[k]
        r = np.linalg.norm(x)
        norms[idx] = np.linalg.norm(div - float(lift.b_hat(r)) * (x / r))
    return norms


def reference_residual_order_3d(lift0, lift1, dt, points, material, h3):
    """The evolution residual and the strain-pairing gap one sample point at a time."""

    def order(lift, y):
        return float(lift.s_hat(np.linalg.norm(y)))

    def displacement(y):
        r = np.linalg.norm(y)
        return float(lift0.u_hat(r)) * (y / r)

    res = np.zeros(len(points))
    ident = np.zeros(len(points))
    for idx, x in enumerate(points):
        frame = sample_frame(x)
        r = np.linalg.norm(x)
        s0 = order(lift0, x)
        s_t = (order(lift1, x) - s0) / dt
        grad_s = np.zeros(3)
        lap_s = 0.0
        grad = np.zeros((3, 3))
        for k in range(3):
            sp = order(lift0, x + h3 * frame[k])
            sm = order(lift0, x - h3 * frame[k])
            grad_s += (sp - sm) / (2.0 * h3) * frame[k]
            lap_s += (sp - 2.0 * s0 + sm) / h3**2
            dv = (displacement(x + h3 * frame[k]) - displacement(x - h3 * frame[k])) / (2.0 * h3)
            grad += np.outer(dv, frame[k])
        eps = 0.5 * (grad + grad.T)
        pairing = float(np.sum(lift0.tensor.apply(eps) * lift0.misfit.entries))
        ident[idx] = abs(
            pairing - material.lam * (float(lift0.u_hat_r(r)) + 2.0 * float(lift0.u_hat(r)) / r)
        )
        _, well_prime = double_well(s0, material.well_weight)
        psi_s = -pairing + material.e * s0 + well_prime
        res[idx] = abs(s_t + material.c * (psi_s - material.nu * lap_s) * np.linalg.norm(grad_s))
    return res, ident


def tensor_run_lifts():
    """Lifts of the last two saved frames of a diagonal-tensor run, their time step and material."""
    cfg = parse_config_text(
        "material.tensor.family = diagonal\nmaterial.tensor.mu0 = 2\nmaterial.misfit_iso = 0.1\n"
        "grid.n = 33\nrun.t_end = 0.01\nrun.save_every = 5\n"
    )
    traj = Simulation(cfg).run().trajectory
    tensor, misfit = cfg.tensor_spec.build()
    s, u = traj.s_matrix(), traj.u_matrix()
    lifts = [
        RadialLift.from_frames(cfg.grid, u[k], s[k], cfg.body.evaluate(float(traj.times[k]), cfg.grid), tensor, misfit)
        for k in (-2, -1)
    ]
    return lifts, float(traj.times[-1] - traj.times[-2]), cfg.material


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
        sf = s_hat(grid.x)
        lift = RadialLift.from_frames(grid, uf, sf, matched_body(grid.x), TENSOR, MISFIT)
        assert np.max(np.abs(lift.u_hat(grid.x) - uf)) < 1e-14
        assert np.max(np.abs(lift.s_hat(grid.x) - sf)) < 1e-14

    def test_sample_frame_is_orthonormal(self):
        rng = np.random.default_rng(22)
        for x in random_shell_points(A, D, 10, rng, margin=0.05):
            frame = sample_frame(x)
            assert np.max(np.abs(frame @ frame.T - np.eye(3))) < 1e-14

    def test_batch_rows_equal_one_point_calls(self):
        lift = manufactured_lift()
        pts = random_shell_points(A, D, 500, np.random.default_rng(31), margin=0.01)
        u, s, b = lift_fields(lift, pts)
        frames = sample_frame(pts)
        assert u.shape == b.shape == frames.shape[:2] == (500, 3) and s.shape == (500,)
        for i, x in enumerate(pts):
            u_i, s_i, b_i = lift_fields(lift, x)
            assert np.array_equal(u[i], u_i) and s[i] == s_i and np.array_equal(b[i], b_i)
            assert np.array_equal(frames[i], sample_frame(x))

    def test_out_of_domain_anywhere_in_a_batch(self):
        lift = manufactured_lift()
        pts = random_shell_points(A, D, 20, np.random.default_rng(32), margin=0.05)
        for bad in (np.array([0.9, 0.0, 0.0]), np.array([0.0, 0.0, 2.1])):
            for where in (0, 7, 20):
                with pytest.raises(OutOfDomain):
                    lift_fields(lift, np.insert(pts, where, bad, axis=0))


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
        lift = RadialLift(A, D, zero, zero, zero, zero, TENSOR, MISFIT)
        rng = np.random.default_rng(23)
        pts = random_shell_points(A, D, 10, rng, margin=0.1)
        assert np.max(residual_elasticity_3d(lift, pts, h3=0.01)) < 1e-12

    def test_manufactured_rate(self):
        lift = manufactured_lift()
        rng = np.random.default_rng(24)
        pts = random_shell_points(A, D, 20, rng, margin=0.15)
        h3s = [0.02, 0.01, 0.005]
        errs = [np.max(residual_elasticity_3d(lift, pts, h3)) for h3 in h3s]
        rate = np.polyfit(np.log(h3s), np.log(errs), 1)[0]
        assert rate >= 1.5

    def test_stiffness_perturbation_is_detected(self):
        lift = manufactured_lift()
        perturbed = RadialLift(
            A, D, u_hat, lift.u_hat_r, s_hat, matched_body,
            ElasticityTensor(1.1 * TENSOR.entries), MISFIT,
        )
        rng = np.random.default_rng(25)
        pts = random_shell_points(A, D, 20, rng, margin=0.15)
        clean = np.max(residual_elasticity_3d(lift, pts, h3=0.01))
        broken = np.max(residual_elasticity_3d(perturbed, pts, h3=0.01))
        assert broken > 10.0 * clean

    def test_rotation_invariance(self):
        lift = manufactured_lift()
        rot = rotation_matrix([0.3, -1.0, 0.5], 1.1)
        rng = np.random.default_rng(26)
        pts = random_shell_points(A, D, 20, rng, margin=0.15)
        res_a = residual_elasticity_3d(lift, pts, h3=0.01)
        res_b = residual_elasticity_3d(lift, pts @ rot.T, h3=0.01)
        assert np.max(np.abs(res_a - res_b)) < 1e-10


class TestOrderResidual:
    def test_zero_fields(self):
        zero = lambda r: 0.0 * np.asarray(r)
        lift = RadialLift(A, D, zero, zero, zero, zero, TENSOR, MISFIT)
        rng = np.random.default_rng(27)
        pts = random_shell_points(A, D, 10, rng, margin=0.1)
        evolution, identity = residual_order_3d(lift, lift, 1e-3, pts, MAT, h3=0.01)
        assert np.max(evolution) < 1e-12
        assert np.max(identity) < 1e-12

    def test_identity_rate(self):
        lift = manufactured_lift()
        rng = np.random.default_rng(28)
        pts = random_shell_points(A, D, 15, rng, margin=0.15)
        h3s = [0.02, 0.01, 0.005]
        errs = [np.max(residual_order_3d(lift, lift, 1e-3, pts, MAT, h3)[1]) for h3 in h3s]
        rate = np.polyfit(np.log(h3s), np.log(errs), 1)[0]
        assert rate == pytest.approx(2.0, abs=0.3)

    def test_manufactured_rate(self):
        dt = 1e-3
        lift0, lift1 = make_order_lifts(dt)
        rng = np.random.default_rng(29)
        pts = random_shell_points(A, D, 20, rng, margin=0.15)
        h3s = [0.02, 0.01, 0.005]
        errs = [np.max(residual_order_3d(lift0, lift1, dt, pts, MAT, h3)[0]) for h3 in h3s]
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
        for a, b in zip(res_a, res_b):
            assert np.max(np.abs(a - b)) < 1e-10

    def test_full_run_residual_decreases_under_refinement(self):
        # lift the last two frames of real runs; the defect is dominated by the
        # gradient regularization, so kappa must shrink along with (h, dt, h3)
        values = []
        for j in range(3):
            f = 2**j
            cfg = make_config(
                n=(65 - 1) * f + 1, kappa=0.25 / f, dt=2e-4 / f,
                t_end=0.01, save_every=5, amplitude=0.5,
            )
            res = Simulation(cfg).run()
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
            evolution, _ = residual_order_3d(lifts[0], lifts[1], dt_frames, pts, cfg.material, 0.02 / f)
            values.append(np.max(evolution))
        assert all(b < a for a, b in zip(values, values[1:]))


class TestAgainstPerPointReference:
    """The batched residuals against the per-point loops they replaced, to 1e-6 of the largest value."""

    @staticmethod
    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("h3", [0.02, 0.01, 0.005])
    def test_manufactured_lifts(self, h3):
        dt = 1e-3
        lift0, lift1 = make_order_lifts(dt)
        pts = random_shell_points(A, D, 40, np.random.default_rng(33), margin=0.15)
        self.assert_close(residual_elasticity_3d(lift0, pts, h3), reference_residual_elasticity_3d(lift0, pts, h3))
        got = residual_order_3d(lift0, lift1, dt, pts, MAT, h3)
        want = reference_residual_order_3d(lift0, lift1, dt, pts, MAT, h3)
        for g, w in zip(got, want):
            self.assert_close(g, w)

    def test_tensor_run_frames(self):
        (lift0, lift1), dt, material = tensor_run_lifts()
        h3 = 0.005
        pts = random_shell_points(A, D, 60, np.random.default_rng(34), margin=3 * h3)
        self.assert_close(residual_elasticity_3d(lift0, pts, h3), reference_residual_elasticity_3d(lift0, pts, h3))
        got = residual_order_3d(lift0, lift1, dt, pts, material, h3)
        want = reference_residual_order_3d(lift0, lift1, dt, pts, material, h3)
        for g, w in zip(got, want):
            self.assert_close(g, w)
