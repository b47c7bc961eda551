import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsim.material import ElasticityTensor, MaterialParams, MisfitStrain, double_well

from tensor_oracle import GATE, brute_force_report, brute_force_scalars, passes_gate

DIAGONAL = ElasticityTensor.diagonal_family(2.0).entries
MISFIT = 0.1 * np.eye(3)


def isotropic(lam_l, mu_l):
    """The Lame form lam*delta_ij*delta_kl + mu*(delta_ik*delta_jl + delta_il*delta_jk)."""
    eye = np.eye(3)
    return (
        lam_l * np.einsum("ij,kl->ijkl", eye, eye)
        + mu_l * np.einsum("ik,jl->ijkl", eye, eye)
        + mu_l * np.einsum("il,jk->ijkl", eye, eye)
    )


class TestStructuralConditions:
    """What the loop oracle of the six conditions admits: the diagonal family with a spherical misfit only."""

    def test_zero_pair_passes_everything(self):
        report = brute_force_report(np.zeros((3, 3, 3, 3)), np.zeros((3, 3)))
        assert list(report) == ["full_symmetry", *GATE]
        assert all(first is None for first in report.values())

    def test_diagonal_family_passes_the_gate_only(self):
        report = brute_force_report(DIAGONAL, MISFIT)
        assert passes_gate(report)
        # the family couples shear pairs asymmetrically, so full symmetry fails
        assert report["full_symmetry"] == (0, 1, 0, 1)

    @given(mu0=st.floats(0.1, 10.0), beta=st.floats(-0.5, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_family_with_spherical_misfit_is_accepted(self, mu0, beta):
        d = ElasticityTensor.diagonal_family(mu0).entries
        eps = MisfitStrain.spherical(beta).entries
        assert passes_gate(brute_force_report(d, eps))
        mu, lam, e = brute_force_scalars(d, eps)
        assert mu == pytest.approx(mu0, rel=1e-12)
        assert lam == pytest.approx(mu0 * beta, rel=1e-12, abs=1e-15)
        assert e == pytest.approx(3.0 * mu0 * beta**2, rel=1e-12, abs=1e-15)

    # a perturbation of either sign: a condition compared without its absolute value misses one of them
    @pytest.mark.parametrize("delta", [1e-6, -1e-6])
    @pytest.mark.parametrize("index", list(np.ndindex(3, 3, 3, 3)), ids=str)
    def test_every_single_entry_perturbation_of_the_family_is_rejected(self, index, delta):
        d = DIAGONAL.copy()
        d[index] += delta
        assert not passes_gate(brute_force_report(d, MISFIT))

    @pytest.mark.parametrize("delta", [1e-6, -1e-6])
    @pytest.mark.parametrize("index", [(i, j) for i in range(3) for j in range(i, 3)], ids=str)
    def test_every_symmetric_perturbation_of_the_misfit_is_rejected(self, index, delta):
        eps = MISFIT.copy()
        eps[index] += delta
        eps[index[::-1]] = eps[index]
        assert not passes_gate(brute_force_report(DIAGONAL, eps))

    def test_isotropic_report(self):
        report = brute_force_report(isotropic(1.0, 1.0), MISFIT)
        assert report["full_symmetry"] is None
        assert report["misfit_coupling_offdiagonal_zero"] is None
        assert report["misfit_coupling_isotropic"] is None
        assert report["zero_unless_k_equals_j"] == (0, 0, 1, 1)
        assert report["reduced_block_diagonal"] == (0, 1, 1, 0)
        assert report["shear_scalar_constant"] == (1, 0, 0, 1)

    @given(
        lam_l=st.floats(-5.0, 5.0),
        mu_l=st.floats(-5.0, 5.0).filter(lambda v: abs(v) > 1e-9),
        beta=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_isotropic_form_is_rejected_for_any_nonzero_shear_modulus(self, lam_l, mu_l, beta):
        assert not passes_gate(brute_force_report(isotropic(lam_l, mu_l), beta * np.eye(3)))

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


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="c must be positive"):
            MaterialParams(c=0.0, nu=0.1, mu=1.0, lam=0.0, e=0.0, well_weight=1.0)
        with pytest.raises(ValueError, match="nu must be positive"):
            MaterialParams(c=1.0, nu=-1.0, mu=1.0, lam=0.0, e=0.0, well_weight=1.0)
        with pytest.raises(ValueError, match="e must be nonnegative"):
            MaterialParams(c=1.0, nu=0.1, mu=1.0, lam=0.0, e=-0.1, well_weight=1.0)

    def test_misfit_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            MisfitStrain(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
