import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsim.material import (
    ASSUMPTION_TOL,
    AssumptionViolated,
    FAMILY_FIELDS,
    ElasticityTensor,
    MaterialParams,
    MisfitStrain,
    TensorSpec,
    check_tensor_assumptions,
    double_well,
    free_energy,
    scalar_coefficients,
)


def brute_force_report(d, eps):
    """Independent per-condition check by explicit loops over all index tuples."""
    tol = ASSUMPTION_TOL
    out = {}

    viol = None
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    bad = (
                        abs(d[i, j, k, l] - d[k, l, i, j]) > tol
                        or abs(d[i, j, k, l] - d[j, i, k, l]) > tol
                        or abs(d[i, j, k, l] - d[i, j, l, k]) > tol
                    )
                    if bad and viol is None:
                        viol = (i, j, k, l)
    out["full_symmetry"] = viol

    viol = None
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    if k != j and abs(d[i, j, k, l]) > tol and viol is None:
                        viol = (i, j, k, l)
    out["zero_unless_k_equals_j"] = viol

    viol = None
    for j in range(3):
        for i in range(3):
            for l in range(3):
                if i != l and abs(d[i, j, j, l]) > tol and viol is None:
                    viol = (i, j, j, l)
    if viol is None:
        for j in range(1, 3):
            for i in range(3):
                for l in range(3):
                    if abs(d[i, j, j, l] - d[i, 0, 0, l]) > tol and viol is None:
                        viol = (i, j, j, l)
    out["reduced_block_diagonal"] = viol

    viol = None
    for l in range(1, 3):
        if abs(d[l, 0, 0, l] - d[0, 0, 0, 0]) > tol and viol is None:
            viol = (l, 0, 0, l)
    out["shear_scalar_constant"] = viol

    e_mat = np.zeros((3, 3))
    for k in range(3):
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    e_mat[k, l] += d[i, j, k, l] * eps[i, j]
    viol = None
    for k in range(3):
        for l in range(3):
            if k != l and abs(e_mat[k, l]) > tol and viol is None:
                viol = (k, l)
    out["misfit_coupling_offdiagonal_zero"] = viol
    viol = None
    for k in range(1, 3):
        if abs(e_mat[k, k] - e_mat[0, 0]) > tol and viol is None:
            viol = (k, k)
    out["misfit_coupling_isotropic"] = viol
    return out


def brute_force_scalars(d, eps):
    mu = d[0, 0, 0, 0]
    lam = sum(d[i, j, 0, 0] * eps[i, j] for i in range(3) for j in range(3))
    e = sum(
        d[i, j, k, l] * eps[i, j] * eps[k, l]
        for i in range(3)
        for j in range(3)
        for k in range(3)
        for l in range(3)
    )
    return mu, lam, e


def assert_matches_oracle(tensor, misfit):
    report = check_tensor_assumptions(tensor, misfit)
    oracle = brute_force_report(tensor.entries, misfit.entries)
    for cond in report.conditions:
        assert cond.passed == (oracle[cond.name] is None), cond.name
        assert cond.first_violation == oracle[cond.name], cond.name
    return report


class TestAssumptionChecks:
    def test_zero_tensor_passes_everything(self):
        report = assert_matches_oracle(ElasticityTensor.zeros(), MisfitStrain.zeros())
        assert report.all_passed
        assert scalar_coefficients(ElasticityTensor.zeros(), MisfitStrain.zeros()) == (0.0, 0.0, 0.0)

    def test_diagonal_family(self):
        tensor = ElasticityTensor.diagonal_family(2.0)
        misfit = MisfitStrain.spherical(0.1)
        report = assert_matches_oracle(tensor, misfit)
        for name in (
            "zero_unless_k_equals_j",
            "reduced_block_diagonal",
            "shear_scalar_constant",
            "misfit_coupling_offdiagonal_zero",
            "misfit_coupling_isotropic",
        ):
            assert report[name].passed
        # the family couples shear pairs asymmetrically, so full symmetry fails
        assert not report["full_symmetry"].passed
        assert report["full_symmetry"].first_violation == (0, 1, 0, 1)

    def test_diagonal_family_scalars(self):
        tensor = ElasticityTensor.diagonal_family(2.0)
        misfit = MisfitStrain.spherical(0.1)
        mu, lam, e = scalar_coefficients(tensor, misfit)
        oracle = brute_force_scalars(tensor.entries, misfit.entries)
        assert mu == pytest.approx(oracle[0], abs=1e-15)
        assert lam == pytest.approx(oracle[1], abs=1e-15)
        assert e == pytest.approx(oracle[2], abs=1e-15)
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert lam == pytest.approx(0.2, abs=1e-12)
        assert e == pytest.approx(0.06, abs=1e-12)

    def test_isotropic_tensor_report(self):
        tensor = ElasticityTensor.isotropic(1.0, 1.0)
        misfit = MisfitStrain.spherical(0.1)
        report = assert_matches_oracle(tensor, misfit)
        assert report["full_symmetry"].passed
        assert report["misfit_coupling_offdiagonal_zero"].passed
        assert report["misfit_coupling_isotropic"].passed
        assert not report["zero_unless_k_equals_j"].passed
        assert report["zero_unless_k_equals_j"].first_violation == (0, 0, 1, 1)
        assert not report["reduced_block_diagonal"].passed
        assert report["reduced_block_diagonal"].first_violation == (0, 1, 1, 0)
        assert not report["shear_scalar_constant"].passed
        assert report["shear_scalar_constant"].first_violation == (1, 0, 0, 1)

    def test_isotropic_extraction_raises(self):
        with pytest.raises(AssumptionViolated) as err:
            scalar_coefficients(ElasticityTensor.isotropic(1.0, 1.0), MisfitStrain.spherical(0.1))
        assert "zero_unless_k_equals_j" in str(err.value)

    def test_scaling_is_linear(self):
        tensor = ElasticityTensor.diagonal_family(2.0)
        scaled = ElasticityTensor(3.0 * tensor.entries)
        misfit = MisfitStrain.spherical(0.1)
        base = scalar_coefficients(tensor, misfit)
        top = scalar_coefficients(scaled, misfit)
        assert top == pytest.approx(tuple(3.0 * v for v in base), rel=1e-14)

    @given(mu0=st.floats(0.1, 10.0), beta=st.floats(-0.5, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_family_scalars_closed_form(self, mu0, beta):
        mu, lam, e = scalar_coefficients(
            ElasticityTensor.diagonal_family(mu0), MisfitStrain.spherical(beta)
        )
        assert mu == pytest.approx(mu0, rel=1e-12)
        assert lam == pytest.approx(mu0 * beta, rel=1e-12, abs=1e-15)
        assert e == pytest.approx(3.0 * mu0 * beta**2, rel=1e-12, abs=1e-15)

    @given(
        base=st.sampled_from(["zero", "diagonal", "isotropic"]),
        scale=st.floats(0.5, 3.0),
        perturbations=st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 2)] * 4),
                st.sampled_from([0.5, -1.0, 1e-13]),
            ),
            max_size=3,
        ),
        misfit_kind=st.sampled_from(["zero", "spherical", "symmetric"]),
        misfit_values=st.lists(st.floats(-0.5, 0.5), min_size=6, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_report_matches_oracle_on_perturbed_families(
        self, base, scale, perturbations, misfit_kind, misfit_values
    ):
        # a perturbation of 1e-13 stays below the tolerance and must not count
        tensor = {
            "zero": ElasticityTensor.zeros(),
            "diagonal": ElasticityTensor.diagonal_family(scale),
            "isotropic": ElasticityTensor.isotropic(0.7 * scale, scale),
        }[base]
        d = tensor.entries.copy()
        for index, delta in perturbations:
            d[index] += delta
        if misfit_kind == "zero":
            eps = np.zeros((3, 3))
        elif misfit_kind == "spherical":
            eps = misfit_values[0] * np.eye(3)
        else:
            eps = np.zeros((3, 3))
            eps[np.triu_indices(3)] = misfit_values
            eps = eps + np.triu(eps, 1).T
        assert_matches_oracle(ElasticityTensor(d), MisfitStrain(eps))

    def test_mu_independent_of_representative_indices(self):
        d = ElasticityTensor.diagonal_family(1.7).entries
        values = [d[l, j, j, l] for j in range(3) for l in range(3)]
        assert max(values) - min(values) < 1e-12


class TestDoubleWell:
    def test_minima(self):
        assert double_well(0.0, 1.0) == (0.0, 0.0)
        assert double_well(1.0, 1.0) == (0.0, 0.0)

    def test_symmetry_point(self):
        value, deriv = double_well(0.5, well_weight=1.0)
        assert value == pytest.approx(0.0625, abs=1e-15)
        assert deriv == pytest.approx(0.0, abs=1e-15)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for w in (1.0, 3.5):
            _, deriv = double_well(0.3, w)
            fd = (double_well(0.3 + h, w)[0] - double_well(0.3 - h, w)[0]) / (2 * h)
            assert deriv == pytest.approx(fd, abs=1e-8)

    @given(s=st.floats(-2.0, 3.0), w=st.floats(0.1, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_derivative_property(self, s, w):
        h = 1e-5
        _, deriv = double_well(s, w)
        fd = (double_well(s + h, w)[0] - double_well(s - h, w)[0]) / (2 * h)
        assert abs(deriv - fd) < 1e-6


class TestFreeEnergy:
    def test_vanishes_on_well_floor(self):
        tensor = ElasticityTensor.diagonal_family(2.0)
        misfit = MisfitStrain.spherical(0.1)
        for s in (0.0, 1.0):
            eps = misfit.entries * s
            assert free_energy(eps, s, tensor, misfit, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_everything(self):
        assert free_energy(np.zeros((3, 3)), 0.0, ElasticityTensor.zeros(), MisfitStrain.zeros(), 1.0) == 0.0

    def test_matches_brute_force_summation(self):
        rng = np.random.default_rng(42)
        tensor = ElasticityTensor.isotropic(1.3, 0.7)
        misfit = MisfitStrain.spherical(0.05)
        raw = rng.normal(size=(3, 3))
        eps = 0.5 * (raw + raw.T)
        s = 0.4
        w = 2.0
        got = free_energy(eps, s, tensor, misfit, w)
        elastic = eps - misfit.entries * s
        expected = 0.0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        expected += (
                            0.5 * tensor.entries[i, j, k, l] * elastic[i, j] * elastic[k, l]
                        )
        expected += w * s**2 * (1 - s) ** 2
        assert got == pytest.approx(expected, abs=1e-12)

    @given(
        s=st.floats(-1.0, 2.0),
        scale=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_for_positive_definite_tensor(self, s, scale):
        tensor = ElasticityTensor.isotropic(1.0, 1.0)
        assert tensor.is_positive_definite()
        misfit = MisfitStrain.spherical(0.1)
        eps = scale * np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 0.3]])
        assert free_energy(eps, s, tensor, misfit, 1.0) >= 0.0


class TestParamsAndSpec:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="c must be positive"):
            MaterialParams(c=0.0, nu=0.1, mu=1.0, lam=0.0, e=0.0, well_weight=1.0)
        with pytest.raises(ValueError, match="nu must be positive"):
            MaterialParams(c=1.0, nu=-1.0, mu=1.0, lam=0.0, e=0.0, well_weight=1.0)
        with pytest.raises(ValueError, match="e must be nonnegative"):
            MaterialParams(c=1.0, nu=0.1, mu=1.0, lam=0.0, e=-0.1, well_weight=1.0)

    def test_from_tensors(self):
        params = MaterialParams.from_tensors(
            ElasticityTensor.diagonal_family(2.0),
            MisfitStrain.spherical(0.1),
            c=1.0,
            nu=0.1,
            well_weight=1.0,
        )
        assert params.mu == pytest.approx(2.0)
        assert params.lam == pytest.approx(0.2)
        assert params.e == pytest.approx(0.06)

    def test_tensor_spec_families(self):
        spec = TensorSpec(family="diagonal", mu0=2.0, misfit_iso=0.1)
        tensor, misfit = spec.build()
        assert scalar_coefficients(tensor, misfit)[0] == pytest.approx(2.0)

        flat = tuple(ElasticityTensor.diagonal_family(1.5).entries.ravel())
        spec = TensorSpec(family="entries", entries=flat, misfit=tuple(np.eye(3).ravel() * 0.2))
        tensor, misfit = spec.build()
        assert scalar_coefficients(tensor, misfit)[0] == pytest.approx(1.5)

        with pytest.raises(ValueError):
            TensorSpec(family="entries", entries=(1.0, 2.0), misfit_iso=0.1).build()
        with pytest.raises(ValueError):
            TensorSpec(family="diagonal", mu0=1.0).build()

    @pytest.mark.parametrize(
        "family, fields", [("diagonal", "mu0"), ("isotropic", "lambda_l and mu_l"), ("entries", "entries")]
    )
    def test_tensor_spec_names_its_familys_unset_fields(self, family, fields):
        assert " and ".join(FAMILY_FIELDS[family]) == fields
        with pytest.raises(ValueError, match=f"^tensor family '{family}' needs {fields}$"):
            TensorSpec(family, misfit_iso=0.1)
        # one field set: the message names the others only
        first, *rest = FAMILY_FIELDS[family]
        if rest:
            with pytest.raises(ValueError, match=f"^tensor family '{family}' needs {' and '.join(rest)}$"):
                TensorSpec(family, misfit_iso=0.1, **{first: 1.0})

    def test_tensor_spec_refuses_an_unknown_family_and_a_misfit_count_other_than_one(self):
        with pytest.raises(ValueError, match="^unknown tensor family 'cubic'$"):
            TensorSpec("cubic", mu0=1.0, misfit_iso=0.1)
        message = "^tensor spec needs exactly one of misfit / misfit_iso$"
        with pytest.raises(ValueError, match=message):
            TensorSpec("diagonal", mu0=1.0)
        with pytest.raises(ValueError, match=message):
            TensorSpec("diagonal", mu0=1.0, misfit=tuple(np.eye(3).ravel()), misfit_iso=0.1)

    def test_misfit_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            MisfitStrain(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
