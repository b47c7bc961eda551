"""The time step's functions against the plain expressions they replaced.

``d1``, ``driving_force``, ``semi_implicit_step`` and ``solve_fd`` do their
arithmetic in place on arrays they allocate, and ``solve_fd`` solves with
the LU factors cached with the FD operator.  They, ``elastic_rhs`` and
``solve_elasticity`` take what ``march`` builds once per run: the step's
constants (``step_constants``), the FD operator, lam/mu and h
(``elastic_constants``, ``fd_operator``) and a body force's b/mu.  The
expressions and the two ``dgtsv`` solves they were written as are kept here
as references, and so are builders of those constants, which compute every
field and the FD bands from the plain values as Python floats and plain
rows.  The reference functions read only what the reference builders
built.  The library's builders must equal the reference builders, and its
functions the reference functions, bit for bit, signed zeros included: on
drawn states, on a batch with a non-finite row, and along whole runs under
each body-force family's path.  The functions must leave their inputs
unwritten, and a run's recorded frames must own their memory.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsim import elasticity, simulator
from confsim.config import BodyForce, InitialData
from confsim.elasticity import (
    ElasticConstants, elastic_constants, elastic_rhs, fd_operator, solve_elasticity, solve_fd,
)
from confsim.grid_field import Grid, d1, tridiag_factor, tridiag_solve
from confsim.material import MaterialParams
from confsim.order_parameter import (
    StepConstants, StepRejected, driving_force, semi_implicit_step, step_constants,
)
from confsim.simulator import Simulation, march

from conftest import make_config


def reference_step_constants(x, h, params):
    return StepConstants(
        x=x, curvature=2.0 * params.c * params.nu / x, two_h=2.0 * h, h_sq=h**2, c=params.c,
        c_nu=params.c * params.nu, e=params.e, minus_lam=-params.lam, two_well_weight=2.0 * params.well_weight,
    )


def reference_fd_operator(grid):
    """The FD bands assembled from the nodes, and gttrf's factors of them."""
    n, h, xi = grid.n, grid.h, grid.x[1:-1]
    diag = np.ones(n)
    diag[1:-1] = -2.0 / h**2 - 2.0 / xi**2
    lower = np.append(1.0 / h**2 - 1.0 / (xi * h), 0.0)
    upper = np.append(0.0, 1.0 / h**2 + 1.0 / (xi * h))
    return lower, diag, upper, tridiag_factor(lower, diag, upper)


def reference_elastic_constants(grid, params):
    return ElasticConstants(reference_fd_operator(grid), params.lam / params.mu, 2.0 * grid.h, grid.h)


def reference_d1(v, h, **ignored):
    out = np.empty_like(v)
    vt, ot = v.T, out.T
    ot[1:-1] = (vt[2:] - vt[:-2]) / (2.0 * h)
    ot[0] = (-3.0 * vt[0] + 4.0 * vt[1] - vt[2]) / (2.0 * h)
    ot[-1] = (3.0 * vt[-1] - 4.0 * vt[-2] + vt[-3]) / (2.0 * h)
    return out


def reference_driving_force(u, u_x, s, s_x, k):
    well_prime = k.two_well_weight * s * (1.0 - s) * (1.0 - 2.0 * s)
    f1 = k.c * (k.minus_lam * (u_x + 2.0 * u / k.x) + k.e * s + well_prime)
    return f1 - k.curvature * s_x


def _reference_pin_ends(solution, s):
    new = solution.reshape(s.shape)
    new[..., 0] = 0.0
    new[..., -1] = 0.0
    return new, np.abs(new - s).max(axis=-1)


def reference_semi_implicit_step(s, force, dt, kappa, guard, s_x, k):
    mod = np.hypot(s_x, kappa)
    coef = k.c_nu * mod
    rhs = s.copy()
    reaction = -force * (mod - kappa)
    rhs[..., 1:-1] += dt * reaction[..., 1:-1]
    rhs[..., 0] = 0.0
    rhs[..., -1] = 0.0
    beta = dt * coef[..., 1:-1] / k.h_sq
    diag = np.ones(s.shape)
    diag[..., 1:-1] += 2.0 * beta
    off = np.zeros(s.shape)
    off[..., 1:-1] = -beta
    flat = off.ravel()
    new, increment = _reference_pin_ends(tridiag_solve(flat[1:], diag.ravel(), flat[:-1], rhs.ravel()), s)
    limit = min(guard, sys.float_info.max)
    ok = increment <= limit
    if s.ndim == 2 and not np.isfinite(increment).all():
        rows = [tridiag_solve(o[1:], d, o[:-1], r) for o, d, r in zip(off, diag, rhs)]
        new, increment = _reference_pin_ends(np.array(rows), s)
        ok = increment <= limit
    if not ok.all():
        if s.ndim == 1:
            raise StepRejected(float(increment), guard)
        rejected = ~ok
        raise StepRejected(float(increment[rejected][0]), guard, rejected, new)
    return new


def reference_solve_fd(rhs, operator):
    """Two gtsv solves, the second the refinement step, on the operator's bands."""
    lower, diag, upper, _ = operator
    vec = np.zeros(rhs.shape)
    vec[..., 1:-1] = rhs[..., 1:-1]
    u = tridiag_solve(lower, diag, upper, vec.T).T
    applied = diag * u
    applied[..., :-1] += upper * u[..., 1:]
    applied[..., 1:] += lower * u[..., :-1]
    u -= tridiag_solve(lower, diag, upper, (applied - vec).T).T
    u[..., 0] = 0.0
    u[..., -1] = 0.0
    return u


def reference_elastic_rhs(s_x, b_mu, lam_mu):
    return lam_mu * s_x + b_mu


def same_bits(a, b):
    """Equal shapes and values, the sign of every zero included; any nan matches any nan."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a) & ~np.isnan(a), np.signbit(b) & ~np.isnan(b))
    )


def step_outcome(step, *args):
    """(accepted?, new, increment, rejected rows) of one step, rejected or not."""
    try:
        return True, step(*args), None, None
    except StepRejected as exc:
        return False, exc.new, exc.increment, exc.rejected


def assert_same_outcome(got, want):
    assert got[0] == want[0]
    for g, w in zip(got[1:3], want[1:3]):
        assert (g is None and w is None) or same_bits(g, w)
    assert (got[3] is None and want[3] is None) or np.array_equal(got[3], want[3])


materials = st.builds(
    MaterialParams, c=st.floats(0.1, 2.0), nu=st.floats(0.01, 1.0), mu=st.floats(0.1, 5.0),
    lam=st.floats(-1.0, 1.0), e=st.floats(0.0, 0.5), well_weight=st.floats(0.01, 3.0),
)


@st.composite
def step_states(draw):
    """A lone row or a (B, n) batch, its force, grid, material and step (dt, kappa, guard).

    A batch's kappa is a (B, 1) column.
    """
    n = draw(st.sampled_from([4, 33, 129, 2049]))
    rows = draw(st.sampled_from([None, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n,) if rows is None else (rows, n)
    grid = Grid(1.0, 2.0, n)
    amplitude = draw(st.floats(1e-3, 1.5))
    s, u, force = amplitude * rng.uniform(-1.0, 1.0, size=(3, *shape))
    if draw(st.booleans()):
        s[..., 0] = s[..., -1] = 0.0  # a state the step produced
    dt = draw(st.sampled_from([1e-5, 2e-4, 1e-2]))
    kappa = draw(st.floats(1e-3, 1.0)) if rows is None else rng.uniform(1e-3, 1.0, size=(rows, 1))
    guard = draw(st.sampled_from([1e-3, 1.0, np.inf]))
    return grid, s, u, force, draw(materials), (dt, kappa, guard)


class TestAgainstExpressions:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.05, 2.0), length=st.floats(0.05, 3.0), n=st.integers(4, 2049), material=materials,
    )
    def test_builders(self, a, length, n, material):
        grid = Grid(a, a + length, n)
        pairs = (
            (step_constants(grid.x, grid.h, material), reference_step_constants(grid.x, grid.h, material)),
            (elastic_constants(grid, material), reference_elastic_constants(grid, material)),
        )
        for got, want in pairs:
            assert got._fields == want._fields
            for name, g, w in zip(got._fields, got, want):
                if name == "operator":
                    assert all(same_bits(*pair) for pair in zip(g[:3], w[:3], strict=True))
                    assert all(same_bits(*pair) for pair in zip(g[3], w[3], strict=True))
                else:
                    assert same_bits(g, w), name

    @settings(max_examples=60, deadline=None)
    @given(state=step_states(), pass_two_h=st.booleans())
    def test_d1(self, state, pass_two_h):
        grid, s, *_ = state
        got = d1(s, grid.h, two_h=step_constants(grid.x, grid.h, make_config().material).two_h) if pass_two_h \
            else d1(s, grid.h)
        assert same_bits(got, reference_d1(s, grid.h))

    @settings(max_examples=60, deadline=None)
    @given(state=step_states())
    def test_driving_force(self, state):
        grid, s, u, _, material, *_ = state
        fields = (u, d1(u, grid.h), s, d1(s, grid.h))
        got = driving_force(*fields, step_constants(grid.x, grid.h, material))
        assert same_bits(got, reference_driving_force(*fields, reference_step_constants(grid.x, grid.h, material)))

    def test_driving_force_of_a_batch_of_one_under_a_lone_displacement(self):
        # a batch that rejected all members but one keeps S as (1, n) while u is (n,)
        grid = Grid(1.0, 2.0, 33)
        rng = np.random.default_rng(3)
        s, u = rng.uniform(-1.0, 1.0, size=(1, grid.n)), rng.uniform(-1.0, 1.0, size=grid.n)
        material = make_config().material
        fields = (u, d1(u, grid.h), s, d1(s, grid.h))
        got = driving_force(*fields, step_constants(grid.x, grid.h, material))
        assert got.shape == (1, grid.n)
        assert same_bits(got, reference_driving_force(*fields, reference_step_constants(grid.x, grid.h, material)))

    @settings(max_examples=80, deadline=None)
    @given(state=step_states())
    def test_semi_implicit_step(self, state):
        grid, s, _, force, material, step = state
        args = (s, force, *step, d1(s, grid.h))
        want = step_outcome(reference_semi_implicit_step, *args, reference_step_constants(grid.x, grid.h, material))
        assert_same_outcome(step_outcome(semi_implicit_step, *args, step_constants(grid.x, grid.h, material)), want)

    @settings(max_examples=40, deadline=None)
    @given(state=step_states())
    def test_solve_fd(self, state):
        grid, s, u, *_ = state
        assert same_bits(solve_fd(u, fd_operator(grid)), reference_solve_fd(u, reference_fd_operator(grid)))

    @pytest.mark.parametrize("where", ["force", "s"])
    def test_batch_with_a_non_finite_row(self, where):
        # the joint solve spreads row 0's nan, so every row is solved again on its own
        grid = Grid(1.0, 2.0, 129)
        xi = (grid.x - grid.a) / (grid.d - grid.a)
        s = np.outer([0.6, 0.4, 0.2], np.sin(np.pi * xi))
        force = np.random.default_rng(11).uniform(-0.5, 0.5, size=s.shape)
        {"force": force, "s": s}[where][0, 40] = np.inf
        kappa = np.array([[0.25], [0.125], [0.5]])
        material = make_config().material
        with np.errstate(all="ignore"):
            args = (s, force, 1e-4, kappa, 1.0, d1(s, grid.h))
            got = step_outcome(semi_implicit_step, *args, step_constants(grid.x, grid.h, material))
            want = step_outcome(reference_semi_implicit_step, *args, reference_step_constants(grid.x, grid.h, material))
        assert not got[0] and got[3].tolist() == [True, False, False]
        assert_same_outcome(got, want)


def run_on_reference_functions(monkeypatch, march_them):
    """What ``march_them()`` returns when the step's functions and the builders of their constants are the
    references."""
    with monkeypatch.context() as patch:
        for module, name, reference in (
            (simulator, "step_constants", reference_step_constants),
            (simulator, "elastic_constants", reference_elastic_constants),
            (simulator, "d1", reference_d1),
            (simulator, "driving_force", reference_driving_force),
            (simulator, "semi_implicit_step", reference_semi_implicit_step),
            (elasticity, "d1", reference_d1),
            (elasticity, "elastic_rhs", reference_elastic_rhs),
            (elasticity, "solve_fd", reference_solve_fd),
        ):
            patch.setattr(module, name, reference)
        return march_them()


def assert_same_runs(got, want):
    for a, b in zip(got, want, strict=True):
        for field in ("s_matrix", "u_matrix"):
            assert same_bits(getattr(a.trajectory, field)(), getattr(b.trajectory, field)())
        assert a.report.to_csv_text() == b.report.to_csv_text()
        assert a.termination == b.termination
        assert a.elasticity_residual_max == b.elasticity_residual_max
        assert a.path_discrepancy_max == b.path_discrepancy_max


# a body force fixed in time, whose b/mu march computes once, and one it evaluates every step
BODIES = {
    "zero": BodyForce(),
    "constant": BodyForce(family="constant", amplitude=-0.3),
    "ramp": BodyForce(family="ramp", amplitude=0.2, rate=-40.0),
}


class TestRunsAgainstExpressions:
    """Whole runs, so that the functions meet every state a run reaches."""

    @pytest.mark.parametrize("n, path", [(129, "direct"), (33, "both-verify"), (2049, "direct")])
    def test_lone_run(self, monkeypatch, n, path):
        cfg = make_config(n=n, t_end=2e-3 if n == 2049 else 8e-3, kappa_m=1e-3, path=path)
        assert_same_lone_runs(monkeypatch, cfg)

    @pytest.mark.parametrize("body, path", [("constant", "direct"), ("ramp", "both-verify")])
    def test_lone_run_under_body_force(self, monkeypatch, body, path):
        assert_same_lone_runs(monkeypatch, make_config(n=129, t_end=8e-3, kappa_m=1e-3, path=path, body=BODIES[body]))

    def test_lockstep_batch(self, monkeypatch):
        assert_same_batches(monkeypatch, BODIES["zero"])

    @pytest.mark.parametrize("body", ["constant", "ramp"])
    def test_lockstep_batch_under_body_force(self, monkeypatch, body):
        assert_same_batches(monkeypatch, BODIES[body])


def assert_same_lone_runs(monkeypatch, cfg):
    got = [simulator.Simulation(cfg).run()]
    assert_same_runs(got, run_on_reference_functions(monkeypatch, lambda: [simulator.Simulation(cfg).run()]))


def assert_same_batches(monkeypatch, body):
    configs = [make_config(n=65, t_end=8e-3, kappa=k, kappa_m=1e-3, body=body) for k in (0.5, 0.0625, 0.25)]

    def march_them():
        sims = [Simulation(cfg) for cfg in configs]
        march(sims)
        return [sim.run() for sim in sims]

    assert_same_runs(march_them(), run_on_reference_functions(monkeypatch, march_them))


def read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


class TestNoAliasing:
    @pytest.mark.parametrize("rows", [None, 3])
    def test_read_only_inputs(self, rows):
        # an in-place write into a caller's array would raise here
        cfg = make_config(n=33)
        grid, material, reg = cfg.grid, cfg.material, cfg.reg
        rng = np.random.default_rng(5)
        shape = (grid.n,) if rows is None else (rows, grid.n)
        s, u, force = read_only(*rng.uniform(-0.5, 0.5, size=(3, *shape)))
        s_x, u_x = read_only(d1(s, grid.h), d1(u, grid.h))
        (b_mu,) = read_only(rng.uniform(-0.5, 0.5, size=grid.n))
        kappa = reg.kappa if rows is None else read_only(np.array([[0.5], [0.25], [0.125]]))[0]
        constants, elastic = step_constants(grid.x, grid.h, material), elastic_constants(grid, material)
        inputs = [s, u, force, s_x, u_x, b_mu, *constants, *elastic.operator[:3], *elastic.operator[3]]
        inputs += [] if rows is None else [kappa]
        outputs = [
            d1(s, grid.h),
            driving_force(u, u_x, s, s_x, constants),
            semi_implicit_step(s, force, reg.dt, kappa, reg.increment_guard, s_x, constants),
            elastic_rhs(s_x, b_mu, elastic.lam_mu),
            solve_fd(u, elastic.operator),
            *solve_elasticity(s, b_mu, elastic),
        ]
        for out in outputs:
            assert out.flags.writeable
            assert not any(np.shares_memory(out, given) for given in inputs)

    def test_recorded_frames_own_their_memory(self):
        # frames are recorded without a copy, so each must be an array no other frame and no
        # mollifier window writes into
        configs = [
            replace(make_config(n=33, t_end=3e-3, save_every=1, kappa=k, kappa_m=1e-3),
                    init=InitialData(amplitude=amplitude))
            for k, amplitude in ((0.5, 0.8), (0.125, 0.6))
        ]
        lone = Simulation(configs[0])
        batch = [Simulation(cfg) for cfg in configs]
        march(batch)
        results = [lone.run()] + [sim.run() for sim in batch]
        frames = [f.values for r in results for f in (*r.trajectory.s_frames, *r.trajectory.u_frames)]
        assert len(frames) == 3 * 2 * 16
        for i, frame in enumerate(frames):
            assert not any(np.shares_memory(frame, other) for other in frames[i + 1:])
            # the whole ring buffer, both halves of its mirror: a window of 5 steps in a run of 16
            # frames can wrap
            assert not any(np.shares_memory(frame, sim.mollifier._buf) for sim in [lone, *batch])

