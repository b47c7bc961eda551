import math
import re
import tempfile
import zipfile
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import solve_banded

from confsim.grid_field import (
    FieldFileError,
    Grid,
    ScalarField,
    Trajectory,
    d1,
    d2,
    norm_l2,
    norm_lp_time_lq_space,
    trapezoid,
    tridiag_factor,
    tridiag_factor_solve,
    tridiag_solve,
)
from confsim import simulator

from conftest import edit_fields, make_config


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

    @pytest.mark.parametrize("layout", ["transposed", "strided"])
    def test_non_contiguous_stack_matches_rows(self, layout):
        grid = Grid(1.0, 2.0, 33)
        rng = np.random.default_rng(8)
        stack = {
            "transposed": rng.normal(size=(grid.n, 7)).T,
            "strided": rng.normal(size=(7, 2 * grid.n))[:, ::2],
        }[layout]
        assert not stack.flags.c_contiguous
        for op in (d1, d2):
            got = op(stack, grid.h)
            for row, values in zip(got, stack):
                assert same_bits(row, op(np.ascontiguousarray(values), grid.h))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 40),
        rows=st.integers(1, 9),
        h=st.floats(1e-3, 1.0),
        layout=st.sampled_from(["c", "fortran", "strided", "reversed", "batch"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_rows_equal_row_by_row(self, n, rows, h, layout, seed):
        # every stack takes the interior over its flattened rows in one pass, a
        # layout other than C-contiguous after reshape(-1) copies it: each row is
        # its own d1 or d2
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
        base[rng.random(base.shape) < 0.1] = 0.0
        stack = {
            "c": base,
            "fortran": np.asfortranarray(base),
            "strided": np.repeat(base, 2, axis=1)[:, ::2],
            "reversed": base[::-1],
            "batch": np.stack([base, -base]),
        }[layout]
        assert stack.flags.c_contiguous == (layout in ("c", "batch")) or rows == 1
        for op in (d1, d2):
            got = op(stack, h)
            assert got.shape == stack.shape
            for row, values in zip(got.reshape(-1, n), stack.reshape(-1, n)):
                assert np.array_equal(row, op(np.array(values), h))

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
    # a long run's report: larger than the allocator's mmap threshold
    REPORT_STACK = rng.normal(size=(201, 129))

    @pytest.mark.parametrize("y", [ROW, STACK, REPORT_STACK], ids=["row", "stack", "report_stack"])
    @pytest.mark.parametrize("dx", [1.0 / 128, 0.3])
    def test_bit_identical_to_scipy(self, y, dx):
        # the forms the program passes: a C-contiguous float64 array of its own, which the rule works in
        want = integrate.trapezoid(y, dx=dx)
        got = trapezoid(y.copy(), dx)
        assert np.shape(got) == np.shape(want)
        assert same_bits(got, want)

    @pytest.mark.parametrize(
        "y", [STACK.T, STACK[:, ::2], STACK[::-1], STACK.astype(np.float32), STACK.round().astype(int)],
        ids=["transposed", "strided", "reversed", "float32", "int"],
    )
    def test_any_input_sums_its_contiguous_float64_copy(self, y):
        before = y.copy()
        got = trapezoid(y, 0.3)
        assert same_bits(got, trapezoid(np.array(y, dtype=float, order="C"), 0.3))
        assert np.array_equal(y, before)

    @pytest.mark.parametrize("p, q", [(4.0 / 3.0, 2.0), (8.0 / 3.0, math.inf), (4.0 / 3.0, 4.0 / 3.0), (2.0, 2.0)])
    def test_mixed_norm_time_integral_is_scipys_on_uneven_times(self, p, q):
        h = 1.0 / 128
        magnitude = np.abs(self.STACK)
        if q == math.inf:
            per_frame = np.max(magnitude, axis=-1)
        else:
            per_frame = integrate.trapezoid(magnitude**q, dx=h) ** (1.0 / q)
        want = float(integrate.trapezoid(per_frame**p, x=self.TIMES)) ** (1.0 / p)
        assert same_bits(norm_lp_time_lq_space(self.TIMES, self.STACK, h, p, q), want)


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
        with pytest.raises(np.linalg.LinAlgError):
            tridiag_factor(np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2))

    @pytest.mark.parametrize("n", [3, 4, 33, 129, 2049])
    @pytest.mark.parametrize("columns", [None, 1, 2, 201])
    def test_factor_solve_matches_gtsv(self, n, columns):
        rng = np.random.default_rng(n)
        beta = rng.uniform(0.0, 1e3, size=n - 2)
        diag = np.ones(n)
        diag[1:-1] += 2.0 * beta
        # the FD operator and a matrix of the order-parameter step, as solve_fd and the step build them
        for bands in (fd_operator(n), (np.append(-beta, 0.0), diag, np.append(0.0, -beta))):
            factors = tridiag_factor(*bands)
            rhs = rng.normal(size=n if columns is None else (n, columns))
            for b in (rhs, np.asfortranarray(rhs)):
                want = tridiag_solve(*bands, b)
                assert same_bits(tridiag_factor_solve(factors, b.copy(order="K")), want)

    def test_factors_are_read_only_and_bands_unchanged(self):
        bands = fd_operator(17)
        before = [a.copy() for a in bands]
        factors = tridiag_factor(*bands)
        tridiag_factor_solve(factors, np.linspace(-1.0, 1.0, 17))
        assert not any(part.flags.writeable for part in factors)
        for a, b in zip(bands, before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("columns", [None, 3])
    def test_overwrite_solves_in_the_callers_arrays(self, columns):
        lower, diag, upper = fd_operator(33)
        rhs = np.random.default_rng(2).normal(size=33 if columns is None else (33, columns))
        want = tridiag_solve(lower, diag, upper, rhs)
        arrays = [a.copy(order="F") for a in (lower, diag, upper, rhs)]
        got = tridiag_solve(*arrays, overwrite=True)
        assert same_bits(got, want)
        assert np.shares_memory(got, arrays[3])
        work = rhs.copy(order="F")
        got = tridiag_factor_solve(tridiag_factor(lower, diag, upper), work)
        assert same_bits(got, want)
        assert np.shares_memory(got, work)


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf, 1.0 / 3.0]

# float64 bit patterns a text format cannot carry or that sit at its edges:
# -0.0, the smallest and largest subnormals, +-inf, quiet and signalling nans
# with payloads and a negative nan with every payload bit set
SPECIAL_BITS = [
    0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
]


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


@lru_cache(maxsize=None)
def _one_frame_run(n):
    """A run of one frame on n nodes: its step 0 is rejected."""
    return simulator.Simulation(make_config(n=n, increment_guard=1e-12)).run()


def with_frames(result, s, u, times=None):
    """``result`` with its frames' S and u replaced by the rows of ``s`` and ``u`` (and their times)."""
    traj = result.trajectory
    grid = traj.grid
    frames = Trajectory(
        traj.times if times is None else times,
        [ScalarField(grid, row) for row in s],
        [ScalarField(grid, row) for row in u],
        traj.steps,
    )
    return replace(result, trajectory=frames)


class TestSerialization:
    """The run's fields, one ``fields.npz``: its members, their read-back and the reader's checks."""

    def test_field_round_trip(self, tmp_path):
        # step, time, the grid's nodes and (frames, nodes) S and u, each read back exactly by plain numpy
        result = simulator.Simulation(make_config(n=33, t_end=2e-3, save_every=2)).run()
        simulator.write_run(tmp_path, result)
        traj = result.trajectory
        with np.load(tmp_path / "fields.npz", allow_pickle=False) as fields:
            assert sorted(fields.files) == ["S", "step", "time", "u", "x"]
            assert fields["step"].dtype == np.int64 and np.array_equal(fields["step"], traj.steps)
            for name, want in (("time", traj.times), ("x", traj.grid.x), ("S", traj.s_matrix()),
                               ("u", traj.u_matrix())):
                assert fields[name].dtype == np.float64 and same_bits(fields[name], want)
        # uncompressed: each member's bytes are stored as they are
        with zipfile.ZipFile(tmp_path / "fields.npz") as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize("n", [4, 129, 2049])
    def test_extreme_values_read_back_bit_for_bit(self, tmp_path, n):
        result = simulator.Simulation(make_config(n=n, t_end=4e-4, save_every=1)).run()
        rng = np.random.default_rng(n)
        values = rng.normal(size=(2, 3, n)) * 10.0 ** rng.integers(-300, 300, size=(2, 3, n))
        values.reshape(-1)[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
        rng.shuffle(values.reshape(-1))
        times = np.array([0.0, 0.1 + 0.2, 1e300])
        simulator.write_run(tmp_path, with_frames(result, values[0], values[1], times))
        traj, _, _ = simulator.load_run(tmp_path)
        assert same_bits(traj.s_matrix(), values[0]) and same_bits(traj.u_matrix(), values[1])
        assert same_bits(traj.times, times)
        assert np.array_equal(traj.steps, result.trajectory.steps)
        assert all(f.values.flags.c_contiguous for f in traj.s_frames + traj.u_frames)

    @settings(max_examples=40, deadline=None)
    @given(bits=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS)),
                         min_size=8, max_size=80))
    def test_every_bit_pattern_round_trips(self, bits):
        # no canonical nan: the archive keeps a nan's sign and payload
        n = len(bits) // 2
        values = np.array(bits[: 2 * n], dtype=np.uint64).view(np.float64).reshape(2, 1, n)
        result = _one_frame_run(n)
        with tempfile.TemporaryDirectory() as tmp:
            simulator.write_run(tmp, with_frames(result, values[0], values[1]))
            back, _, _ = simulator.load_run(tmp)
        assert np.array_equal(back.s_matrix().view(np.uint64), values[0].view(np.uint64))
        assert np.array_equal(back.u_matrix().view(np.uint64), values[1].view(np.uint64))

    def test_short_member_names_the_file(self, tmp_path):
        # S and u share one step and one time column, so a frame missing from one is a shape error
        simulator.write_run(tmp_path, simulator.Simulation(make_config(n=33, t_end=2e-3, save_every=2)).run())
        edit_fields(tmp_path / "fields.npz", lambda members: members.update(S=members["S"][:2]))
        message = "expected S and u of shape (K >= 1, 33) and step and time of shape (K,), got (2, 33), (6, 33)"
        with pytest.raises(FieldFileError, match=r"fields\.npz: " + re.escape(message)):
            simulator.load_run(tmp_path)

    def test_other_grid_rejected(self, tmp_path):
        for name, grid in (("mine", (1.0, 2.0, 33)), ("wider", (1.0, 2.5, 33)), ("finer", (1.0, 2.0, 65))):
            cfg = replace(make_config(n=33, t_end=4e-4, save_every=1), grid=Grid(*grid))
            simulator.write_run(tmp_path / name, simulator.Simulation(cfg).run())
        fields = tmp_path / "mine" / "fields.npz"
        fields.write_bytes((tmp_path / "wider" / "fields.npz").read_bytes())
        with pytest.raises(FieldFileError, match=r"fields\.npz: x differs from the nodes of the grid on \[1, 2\]"):
            simulator.load_run(tmp_path / "mine")
        fields.write_bytes((tmp_path / "finer" / "fields.npz").read_bytes())
        with pytest.raises(FieldFileError, match=r"fields\.npz: expected S and u of shape \(K >= 1, 33\)"):
            simulator.load_run(tmp_path / "mine")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.update(step=m["step"].astype(float)), "expected an integer step and float64 time, x, S "
             "and u, got float64, float64, float64, float64 and float64"),
            (lambda m: m.update(u=m["u"].astype(np.float32)), "got int64, float64, float64, float64 and float32"),
            (lambda m: m.update(time=m["time"][:, None]), "got (3, 9), (3, 9), (3,) and (3, 1)"),
            (lambda m: m.update({k: v[:0] for k, v in m.items() if k != "x"}), "got (0, 9), (0, 9), (0,) and (0,)"),
        ],
        ids=["float_step", "float32_u", "time_column", "no_frames"],
    )
    def test_malformed_member_names_the_file(self, tmp_path, edit, message):
        simulator.write_run(tmp_path, simulator.Simulation(make_config(n=9, t_end=4e-4, save_every=1)).run())
        edit_fields(tmp_path / "fields.npz", edit)
        with pytest.raises(FieldFileError, match=r"fields\.npz: .*" + re.escape(message)):
            simulator.load_run(tmp_path)

    def test_run_directory_holds_three_files(self, tmp_path):
        result = simulator.Simulation(make_config(n=33, t_end=2e-3, save_every=1)).run()
        simulator.write_run(tmp_path, result)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["diagnostics.csv", "fields.npz", "meta.txt"]
        back, _, diag_text = simulator.load_run(tmp_path)
        traj = result.trajectory
        assert same_bits(back.s_matrix(), traj.s_matrix())
        assert same_bits(back.u_matrix(), traj.u_matrix())
        assert same_bits(back.times, traj.times)
        assert diag_text == result.report.to_csv_text()

    def test_trajectory_validation(self):
        grid = Grid(1.0, 2.0, 5)
        z = ScalarField(grid, np.zeros(grid.n))
        traj = Trajectory(np.array([0.0, 0.5, 1.0]), [z] * 3, [z] * 3, np.array([0, 1, 2]))
        traj.validate(t_end=1.0)
        # a run resumed from a snapshot starts at the snapshot's time
        Trajectory(np.array([0.1, 0.5]), [z] * 2, [z] * 2, np.array([1, 2])).validate(t_end=0.5)
        bad = Trajectory(np.array([0.1, 0.5, 0.5]), [z] * 3, [z] * 3, np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="strictly increasing"):
            bad.validate()


class TestScalarField:
    def test_validation(self):
        grid = Grid(1.0, 2.0, 5)
        assert ScalarField(grid, [0, 1, 2, 1, 0]).values.dtype == float
        # a stack of frames is a field too, its last axis the grid
        assert ScalarField(grid, np.zeros((2, 5))).values.shape == (2, 5)
        for shape in ((4,), (2, 4), ()):
            with pytest.raises(ValueError, match="expected 5 values"):
                ScalarField(grid, np.zeros(shape))
