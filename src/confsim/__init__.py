"""Radial phase-transition simulator with configurational-force coupling."""

from .grid_field import Grid, ScalarField, Trajectory, d1, d2, norm_l2
from .material import (
    AssumptionViolated,
    ElasticityTensor,
    MaterialParams,
    MisfitStrain,
    TensorSpec,
    check_tensor_assumptions,
    double_well,
    free_energy,
    scalar_coefficients,
)
from .elasticity import (
    GreenKernel, elastic_constants, elastic_rhs, fd_operator, solve_fd, solve_green,
)
from .order_parameter import (
    MollifierState,
    RegularizationParams,
    StepRejected,
    driving_force,
    mollify,
    semi_implicit_step,
    smoothed_abs,
    smoothed_abs_primitive,
    step_constants,
)
from .reduction3d import RadialLift, lift_fields, residual_elasticity_3d, residual_order_3d
from .config import (
    BodyForce,
    ConfigInvalid,
    InitialData,
    SimulationConfig,
    StudyConfig,
    parse_config_text,
)
from .diagnostics import DiagnosticsReport, build_report, energy_monitor, weak_residual
from .simulator import (
    RunResult,
    Simulation,
    load_run,
    load_snapshot,
    save_snapshot,
    write_run,
)
from .studies import mms_convergence, run_study

__version__ = "0.1.0"
