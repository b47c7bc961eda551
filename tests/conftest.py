import numpy as np
import pytest

from confsim.grid_field import Grid
from confsim.material import MaterialParams
from confsim.order_parameter import RegularizationParams
from confsim.config import BodyForce, InitialData, SimulationConfig


def make_config(
    n=65,
    kappa=0.25,
    dt=2e-4,
    t_end=4e-3,
    save_every=5,
    lam=0.2,
    amplitude=0.8,
    family="plateau",
    body=None,
    path="direct",
    **kw,
):
    """Desk-scale config used across the suite; keyword overrides as needed."""
    return SimulationConfig(
        grid=Grid(1.0, 2.0, n),
        material=MaterialParams(c=1.0, nu=0.1, mu=2.0, lam=lam, e=0.06, well_weight=1.0),
        reg=RegularizationParams(kappa=kappa, dt=dt, **kw),
        t_end=t_end,
        save_every=save_every,
        elasticity_path=path,
        init=InitialData(family=family, amplitude=amplitude),
        body=body or BodyForce(),
    )


def edit_fields(path, edit):
    """Write the numpy archive at ``path`` (a run's ``fields.npz``, a snapshot) again, its members as ``edit``
    leaves them in a dict."""
    with np.load(path) as fields:
        members = dict(fields)
    edit(members)
    np.savez(path, **members)


def check_trajectory(traj, t_end=None):
    """Assert a trajectory's frame counts agree, its times strictly increase and, given t_end, end there."""
    assert len(traj.times) == len(traj.s_frames) == len(traj.u_frames), "frame count mismatch"
    assert np.all(np.diff(traj.times) > 0), "save times must be strictly increasing"
    assert t_end is None or traj.times[-1] == t_end, "last frame must be at t_end"


def green(kernel, x, y):
    """G(x, y) = u1(min) u2(max) / norm_const, the kernel ``solve_green`` integrates against."""
    return kernel.u1(np.minimum(x, y)) * kernel.u2(np.maximum(x, y)) / kernel.norm_const


def green_dx(kernel, x, y):
    """dG/dx, one-sided at x = y, where it takes the x < y branch."""
    below = kernel.u1_prime(x) * kernel.u2(np.maximum(x, y))
    above = kernel.u1(np.minimum(x, y)) * kernel.u2_prime(x)
    return np.where(x <= y, below, above) / kernel.norm_const


def green_operator_residual(kernel, x, y):
    """(x^2 G_x)_x - 2 G off the diagonal, with u1'' = -6 a^3 / x^4 and u2'' = -6 d^3 / x^4."""
    x = np.asarray(x, dtype=float)
    # x < y takes u1 at x and u2 at y, x > y the other way round
    below = (kernel.u1(x), kernel.u1_prime(x), -6.0 * kernel.a**3 / x**4, kernel.u2(y))
    above = (kernel.u2(x), kernel.u2_prime(x), -6.0 * kernel.d**3 / x**4, kernel.u1(y))
    f, fp, fpp, other = (np.where(x < y, lo, hi) for lo, hi in zip(below, above))
    return (x**2 * fpp + 2.0 * x * fp - 2.0 * f) * other / kernel.norm_const


@pytest.fixture
def desk_config():
    return make_config()
