import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import solve_banded

from confsim.grid_field import (
    FLOAT_FMT,
    FieldFileError,
    Grid,
    ScalarField,
    Trajectory,
    UnsupportedExponent,
    d1,
    d2,
    load_field,
    norm_l2,
    norm_lp_time_lq_space,
    save_field,
    trapezoid,
    tridiag_solve,
)
from confsim import simulator

from conftest import make_config


def field(grid, fn):
    return np.asarray(fn(grid.x), dtype=float)


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid(2.0, 1.0, 11)
        with pytest.raises(ValueError):
            Grid(-1.0, 1.0, 11)
        with pytest.raises(ValueError):
            Grid(1.0, 2.0, 2)
        with pytest.raises(ValueError, match="at least 4 nodes"):
            Grid(1.0, 2.0, 3)  # d2's boundary stencil reads four nodes

    def test_nodes(self):
        grid = Grid(1.0, 2.0, 5)
        assert grid.x[0] == 1.0
        assert grid.x[-1] == 2.0
        assert np.all(np.diff(grid.x) > 0)
        assert grid.h == pytest.approx(0.25)


class TestStencils:
    def test_d1_constant(self):
        grid = Grid(1.0, 2.0, 33)
        assert np.max(np.abs(d1(field(grid, lambda x: 0 * x + 4.0), grid.h))) == 0.0

    def test_d1_exact_on_linears(self):
        grid = Grid(1.0, 2.0, 17)
        out = d1(field(grid, lambda x: x), grid.h)
        assert np.max(np.abs(out - 1.0)) < 1e-12

    def test_d1_cubic_rate(self):
        errs = []
        hs = []
        for n in (101, 201, 401):
            grid = Grid(1.0, 2.0, n)
            out = d1(field(grid, lambda x: x**3), grid.h)
            errs.append(np.max(np.abs(out - 3 * grid.x**2)))
            hs.append(grid.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate == pytest.approx(2.0, abs=0.1)

    def test_d2_linear_and_quadratic(self):
        grid = Grid(1.0, 2.0, 21)
        assert np.max(np.abs(d2(field(grid, lambda x: 3 * x - 1), grid.h))) < 1e-10
        out = d2(field(grid, lambda x: x**2), grid.h)
        assert np.max(np.abs(out - 2.0)) < 1e-10

    def test_d2_sine_rate(self):
        errs = []
        hs = []
        for n in (101, 201, 401):
            grid = Grid(1.0, 2.0, n)
            out = d2(field(grid, np.sin), grid.h)
            errs.append(np.max(np.abs(out[1:-1] + np.sin(grid.x[1:-1]))))
            hs.append(grid.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate == pytest.approx(2.0, abs=0.1)

    @given(
        alpha=st.floats(-3.0, 3.0),
        beta=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, alpha, beta, seed):
        grid = Grid(1.0, 2.0, 33)
        rng = np.random.default_rng(seed)
        f = rng.uniform(-1, 1, grid.n)
        g = rng.uniform(-1, 1, grid.n)
        combo = alpha * f + beta * g
        for op in (d1, d2):
            lhs = op(combo, grid.h)
            rhs = alpha * op(f, grid.h) + beta * op(g, grid.h)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("n", [4, 5, 129])
    def test_stack_matches_rows_bit_for_bit(self, n):
        grid = Grid(1.0, 2.0, n)
        stack = np.random.default_rng(n).normal(size=(7, n))
        for op in (d1, d2):
            got = op(stack, grid.h)
            assert got.shape == stack.shape
            for row, values in zip(got, stack):
                assert np.array_equal(row, op(values, grid.h))

    def test_norms_of_a_stack_are_the_row_norms(self):
        grid = Grid(1.0, 2.0, 33)
        stack = np.random.default_rng(4).normal(size=(5, grid.n))
        norms = norm_l2(stack, grid.h)
        assert np.array_equal(norms, [norm_l2(row, grid.h) for row in stack])


class TestNorms:
    def test_zero_field(self):
        grid = Grid(1.0, 2.0, 11)
        assert norm_l2(np.zeros(grid.n), grid.h) == 0.0

    def test_unit_constant(self):
        grid = Grid(1.0, 2.0, 101)
        one = field(grid, lambda x: np.ones_like(x))
        assert norm_l2(one, grid.h) == pytest.approx(1.0, abs=1e-14)

    def test_linear_closed_form(self):
        grid = Grid(1.0, 2.0, 1001)
        f = field(grid, lambda x: x)
        assert norm_l2(f, grid.h) == pytest.approx(math.sqrt(7.0 / 3.0), abs=1e-4)

    def test_quadrature_rate(self):
        exact = math.sqrt(0.5 - math.sin(2.0) * math.cos(2.0) + math.sin(1.0) * math.cos(1.0) * 0 + 0)
        # closed form of int_1^2 sin^2(x) dx = 1/2 - (sin(4) - sin(2))/4
        exact = math.sqrt(0.5 - (math.sin(4.0) - math.sin(2.0)) / 4.0)
        errs, hs = [], []
        for n in (51, 101, 201):
            grid = Grid(1.0, 2.0, n)
            errs.append(abs(norm_l2(field(grid, np.sin), grid.h) - exact))
            hs.append(grid.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate >= 1.9

    def test_unsupported_exponent(self):
        grid = Grid(1.0, 2.0, 11)
        with pytest.raises(UnsupportedExponent):
            norm_lp_time_lq_space([0.0, 1.0], np.zeros((2, grid.n)), grid.h, 3.0, 2.0)

    def test_mixed_norm_max(self):
        grid = Grid(1.0, 2.0, 11)
        a = field(grid, lambda x: 0 * x + 1.0)
        b = field(grid, lambda x: 0 * x - 5.0)
        assert norm_lp_time_lq_space([0.0, 1.0], np.stack([a, b]), grid.h, math.inf, math.inf) == 5.0

    def test_mixed_norm_reduces_to_space_norm(self):
        grid = Grid(1.0, 2.0, 201)
        f = field(grid, lambda x: x)
        t_end = 2.5
        got = norm_lp_time_lq_space([0.0, t_end], np.stack([f, f]), grid.h, 2.0, 2.0)
        assert got == pytest.approx(math.sqrt(t_end) * norm_l2(f, grid.h), rel=1e-12)


class TestTrapezoid:
    """The local rule against scipy's, which stays in the tests as the oracle."""

    rng = np.random.default_rng(3)
    ROW = rng.normal(size=129)
    STACK = rng.normal(size=(7, 129))
    TIMES = np.cumsum(rng.uniform(0.1, 1.0, size=7))

    @pytest.mark.parametrize(
        "y, kwargs",
        [
            (ROW, {}),
            (ROW, {"dx": 1.0 / 128}),
            (ROW, {"dx": 0.3, "axis": -1}),
            (STACK, {"dx": 1.0 / 128}),
            (STACK, {"dx": 1.0 / 128, "axis": -1}),
            (STACK, {"dx": 1.0 / 128, "axis": 1}),
            (STACK[:, 5], {"x": TIMES}),
            (STACK, {"x": TIMES, "axis": 0}),
            (STACK.T, {"x": TIMES}),
        ],
    )
    def test_bit_identical_to_scipy(self, y, kwargs):
        got = trapezoid(y, **kwargs)
        want = integrate.trapezoid(y, **kwargs)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    def test_exact_for_linear(self):
        x = np.array([0.0, 0.5, 2.0])
        assert trapezoid(3.0 * x + 1.0, x) == 8.0


def banded_reference(lower, diag, upper, rhs):
    """The (3, n) banded block fed to scipy's general banded solver."""
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, rhs)


def fd_operator(n, a=1.0, d=2.0):
    """Diagonals of the radial elasticity operator with pinned boundary rows.

    Built from the node formula rather than a Grid, so that n = 3 works too.
    """
    h = (d - a) / (n - 1)
    xi = np.linspace(a, d, n)[1:-1]
    diag = np.ones(n)
    diag[1:-1] = -2.0 / h**2 - 2.0 / xi**2
    lower = np.append(1.0 / h**2 - 1.0 / (xi * h), 0.0)
    upper = np.append(0.0, 1.0 / h**2 + 1.0 / (xi * h))
    return lower, diag, upper


class TestTridiagSolve:
    @pytest.mark.parametrize("n", [3, 4, 129, 2049])
    def test_matches_banded_solver_on_fd_operator(self, n):
        lower, diag, upper = fd_operator(n)
        rhs = np.random.default_rng(n).normal(size=n)
        got = tridiag_solve(lower, diag, upper, rhs)
        assert np.array_equal(got, banded_reference(lower, diag, upper, rhs))

    @pytest.mark.parametrize("n", [3, 4, 65, 129])
    def test_matches_banded_solver_on_step_matrices(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            beta = rng.uniform(0.0, 1e3, size=n - 2) * rng.uniform(size=n - 2)
            diag = np.ones(n)
            diag[1:-1] += 2.0 * beta
            lower = np.append(-beta, 0.0)
            upper = np.append(0.0, -beta)
            rhs = rng.normal(size=n)
            got = tridiag_solve(lower, diag, upper, rhs)
            assert np.array_equal(got, banded_reference(lower, diag, upper, rhs))

    def test_inputs_unchanged(self):
        lower, diag, upper = fd_operator(17)
        rhs = np.linspace(-1.0, 1.0, 17)
        before = [a.copy() for a in (lower, diag, upper, rhs)]
        tridiag_solve(lower, diag, upper, rhs)
        for a, b in zip((lower, diag, upper, rhs), before):
            assert np.array_equal(a, b)

    def test_singular_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            tridiag_solve(np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2), np.ones(3))


def reference_save_field(path, f, t):
    """The per-line writer that save_field replaced, kept as the reference."""
    lines = [f"# t = {FLOAT_FMT.format(t)}", "x,value"]
    for x, v in zip(f.grid.x, f.values):
        lines.append(f"{FLOAT_FMT.format(x)},{FLOAT_FMT.format(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


def reference_load_field(path):
    """The per-line reader that load_field replaced: (values, t)."""
    text = Path(path).read_text().strip().splitlines()
    t = float(text[0].split("=", 1)[1])
    return np.array([float(line.split(",")[1]) for line in text[2:]]), t


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf, 1.0 / 3.0]


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


class TestSerialization:
    def test_field_round_trip(self, tmp_path):
        grid = Grid(1.0, 2.0, 33)
        rng = np.random.default_rng(3)
        f = ScalarField(grid, rng.normal(size=grid.n))
        save_field(tmp_path / "f.csv", f, t=0.125)
        g, t = load_field(tmp_path / "f.csv", grid)
        assert t == 0.125
        assert np.array_equal(f.values, g.values)

    @pytest.mark.parametrize("n", [4, 129, 2049])
    def test_same_bytes_and_bits_as_reference(self, tmp_path, n):
        grid = Grid(0.75, 2.5, n)
        rng = np.random.default_rng(n)
        values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        values[: min(n, len(SPECIAL_VALUES))] = SPECIAL_VALUES[:n]
        rng.shuffle(values)
        f = ScalarField(grid, values)
        for t in (0.0, 0.1 + 0.2, 5e-324):
            save_field(tmp_path / "new.csv", f, t)
            reference_save_field(tmp_path / "ref.csv", f, t)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
            g, t_back = load_field(tmp_path / "ref.csv", grid)
            want, t_want = reference_load_field(tmp_path / "ref.csv")
            assert t_back == t_want == t
            assert same_bits(g.values, values) and same_bits(want, values)
            assert g.values.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=4, max_size=40),
        t=st.floats(0.0, 1e3),
    )
    def test_random_values_match_reference(self, values, t):
        # canonical nan: the text "nan" carries no sign or payload
        values = np.where(np.isnan(values), np.nan, values)
        f = ScalarField(Grid(1.0, 3.0, len(values)), values)
        with tempfile.TemporaryDirectory() as tmp:
            save_field(Path(tmp) / "new.csv", f, t)
            reference_save_field(Path(tmp) / "ref.csv", f, t)
            assert (Path(tmp) / "new.csv").read_bytes() == (Path(tmp) / "ref.csv").read_bytes()
            g, t_back = load_field(Path(tmp) / "new.csv", f.grid)
        assert t_back == t
        assert same_bits(g.values, values)

    def test_without_grid_the_file_gives_the_grid(self, tmp_path):
        grid = Grid(1.0, 2.0, 17)
        save_field(tmp_path / "f.csv", ScalarField(grid, grid.x**2), t=0.5)
        g, _ = load_field(tmp_path / "f.csv")
        assert g.grid == grid and np.array_equal(g.values, grid.x**2)

    def test_deleted_line_names_the_file(self, tmp_path):
        grid = Grid(1.0, 2.0, 33)
        path = tmp_path / "S_000001.csv"
        save_field(path, ScalarField(grid, np.zeros(grid.n)), t=0.5)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10] + lines[11:]) + "\n")
        with pytest.raises(FieldFileError, match=r"S_000001\.csv: expected 33 nodes, got 32"):
            load_field(path, grid)

    def test_other_grid_rejected(self, tmp_path):
        save_field(tmp_path / "f.csv", ScalarField(Grid(1.0, 2.0, 33), np.zeros(33)), t=0.5)
        with pytest.raises(FieldFileError, match="x column differs"):
            load_field(tmp_path / "f.csv", Grid(1.0, 2.5, 33))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("x,value", "x;value"),
            lambda text: text.replace(",0\n", ",zero\n", 1),
            lambda text: text.replace(",0\n", "\n", 1),
        ],
        ids=["header", "value", "missing-value"],
    )
    def test_malformed_file_names_the_file(self, tmp_path, edit):
        grid = Grid(1.0, 2.0, 9)
        path = tmp_path / "u_000003.csv"
        save_field(path, ScalarField(grid, np.zeros(grid.n)), t=0.5)
        path.write_text(edit(path.read_text()))
        with pytest.raises(FieldFileError, match=r"u_000003\.csv"):
            load_field(path, grid)

    def test_run_written_by_reference_writer_loads_bit_identically(self, tmp_path, monkeypatch):
        result = simulator.run(make_config(n=33, t_end=2e-3, save_every=1))
        simulator.write_run(tmp_path / "new", result)
        monkeypatch.setattr(simulator, "save_field", reference_save_field)
        simulator.write_run(tmp_path / "ref", result)
        for ref_file in sorted((tmp_path / "ref").rglob("*.csv")):
            assert ref_file.read_bytes() == (tmp_path / "new" / ref_file.relative_to(tmp_path / "ref")).read_bytes()
        traj, _, diag_text = simulator.load_run(tmp_path / "ref")
        assert same_bits(traj.s_matrix(), result.trajectory.s_matrix())
        assert same_bits(traj.u_matrix(), result.trajectory.u_matrix())
        assert same_bits(traj.times, result.trajectory.times)
        assert diag_text == result.report.to_csv_text()

    def test_trajectory_validation(self):
        grid = Grid(1.0, 2.0, 5)
        z = ScalarField(grid, np.zeros(grid.n))
        traj = Trajectory(np.array([0.0, 0.5, 1.0]), [z] * 3, [z] * 3, np.array([0, 1, 2]))
        traj.validate(t_end=1.0)
        bad = Trajectory(np.array([0.1, 0.5]), [z] * 2, [z] * 2, np.array([0, 1]))
        with pytest.raises(ValueError):
            bad.validate()


class TestScalarField:
    def test_validation(self):
        grid = Grid(1.0, 2.0, 5)
        assert ScalarField(grid, [0, 1, 2, 1, 0]).values.dtype == float
        with pytest.raises(ValueError, match="expected 5 values"):
            ScalarField(grid, np.zeros(4))
        with pytest.raises(ValueError, match="expected 5 values"):
            ScalarField(grid, np.zeros((2, 5)))
