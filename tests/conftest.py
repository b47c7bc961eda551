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


@pytest.fixture
def desk_config():
    return make_config()
