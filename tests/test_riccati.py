import math
import os
import subprocess
import sys

import numpy as np
import pytest

from diracweyl import (
    PotentialSpec,
    Propagator,
    alpha_dirichlet,
    cayley,
    cayley_inverse,
    disk_membership,
    halfline_m,
    integrate_cayley,
    integrate_riccati,
    matnorm,
    riccati_rhs,
)
from diracweyl.errors import (
    ContractivityLost,
    DegenerateArguments,
    NotContractive,
    PoleEncountered,
    SingularCayley,
)
from conftest import kp2_spec, smooth_bump_spec


class TestCayleyAlgebra:
    def test_limit_point_image(self):
        assert abs(cayley(np.array([[1j]]), 1)[0, 0]) < 1e-15

    def test_zero_maps_to_identity(self):
        assert abs(cayley(np.zeros((1, 1)), 1)[0, 0] - 1.0) < 1e-15

    def test_roundtrip(self, rng):
        for m in (1, 2, 3):
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            mat = a + 2j * np.eye(m)   # comfortably positive imaginary part
            for sign in (1, -1):
                th = cayley(mat, sign)
                assert matnorm(cayley_inverse(th, sign) - mat) < 1e-12

    def test_singular(self):
        with pytest.raises(SingularCayley):
            cayley(np.array([[-1j]]), 1)
        with pytest.raises(SingularCayley):
            cayley_inverse(np.array([[-1.0]]), 1)


class TestRiccatiFlow:
    def test_fixed_point(self, zero1):
        tr = integrate_riccati(1j, np.array([[1j]]), 0.0, 1.0, zero1)
        assert matnorm(tr.final - 1j * np.eye(1)) < 1e-12
        assert np.max(np.abs(tr.vs - 1j)) < 1e-12

    def test_tangent_closed_form(self, zero1):
        # V(x) = tan(z (c - x)) with z = i, c = 1
        tr = integrate_riccati(1j, np.array([[1j * math.tanh(1.0)]]),
                               0.0, 0.5, zero1)
        assert abs(tr.final[0, 0] - 1j * math.tanh(0.5)) < 1e-10

    def test_nonfinite_potential_rejected_at_construction(self):
        # bad data surfaces when the potential is built, before any flow
        with pytest.raises(ValueError):
            PotentialSpec.constant(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_pole_encountered(self, zero1):
        # tan(z(1 - x)) has a pole at x = 1 - pi/2 for nearly-real z
        z = 1.0 + 1e-9j
        v0 = np.array([[np.tan(z * 1.0)]])
        with pytest.raises(PoleEncountered) as err:
            integrate_riccati(z, v0, 0.0, -1.0, zero1)
        assert abs(err.value.last_x - (1.0 - math.pi / 2)) < 1e-2

    def test_herglotz_floor_positive(self, const_q1):
        h = halfline_m(1.5j, 0.0, alpha_dirichlet(1), const_q1)
        tr = integrate_riccati(1.5j, h.M, 0.0, 2.0, const_q1)
        assert tr.herglotz_floor() > 0


class TestCayleyFlow:
    def test_zero_stays_zero(self, zero1):
        ct = integrate_cayley(1j, np.zeros((1, 1)), 0.0, 1.0, zero1, 1)
        assert np.max(np.abs(ct.thetas)) < 1e-12

    def test_dirichlet_trajectory_closed_form(self, zero1):
        # theta(x) = cayley(i tanh(1 - x)) stays real in (0, 1)
        th0 = np.array([[math.exp(-2.0)]])
        ct = integrate_cayley(1j, th0, 0.0, 0.9, zero1, 1)
        want = (1 - math.tanh(0.1)) / (1 + math.tanh(0.1))
        assert abs(ct.final[0, 0] - want) < 1e-10
        assert np.max(np.abs(ct.thetas.imag)) < 1e-10
        assert ct.contractivity.min() > 0

    def test_not_contractive_input(self, zero1):
        with pytest.raises(NotContractive):
            integrate_cayley(1j, 1.5 * np.eye(1), 0.0, 1.0, zero1, 1)

    def test_contractivity_lost_for_exterior_start(self, zero1):
        # theta0 = 0.9 corresponds to a disk element only up to
        # c* = ln(1/0.9)/2; integrating past it escapes the ball
        with pytest.raises(ContractivityLost) as err:
            integrate_cayley(1j, 0.9 * np.eye(1), 0.0, 1.0, zero1, 1)
        assert err.value.x is not None and err.value.x < 1.0

    def test_commutes_with_riccati(self, rng):
        from diracweyl import normal_form_matrix
        spec = PotentialSpec.constant(normal_form_matrix([[0.2]], [[0.6]]))
        z, sign = 0.8 + 1.3j, 1
        v0 = halfline_m(z, 0.0, alpha_dirichlet(1), spec).M
        # nudge off the fixed point but stay inside the disk family
        v0 = v0 + 0.05j * np.eye(1)
        n = 9
        tr = integrate_riccati(z, v0, 0.0, 1.0, spec, n_out=n)
        ct = integrate_cayley(z, cayley(v0, sign), 0.0, 1.0, spec, sign,
                              n_out=n)
        for vv, th in zip(tr.vs, ct.thetas):
            assert matnorm(cayley(vv, sign) - th) < 1e-8

    def test_disk_trajectory_stays_on_circle(self, zero1):
        # start on the circle at c = 1; along the flow the value sits on the
        # circle of the shrunken interval [x, c]
        a0 = alpha_dirichlet(1)
        z, c = 1j, 1.0
        tr = integrate_riccati(z, np.array([[1j * math.tanh(c)]]), 0.0, 0.8,
                               zero1, n_out=5)
        for x, vv in zip(tr.xs, tr.vs):
            point = disk_membership(vv, z, c, x, a0, zero1)
            assert point.classification == "boundary"


class TestHalfLineConsistency:
    def test_halfline_solves_riccati(self):
        # finite-difference x-derivative of M_+(z, x) obeys the flow;
        # x sits mid-cell so the difference window avoids interpolation kinks
        spec = smooth_bump_spec(n=801)
        a0 = alpha_dirichlet(1)
        z, x, h = 1.2j, 0.4 + 0.5 / 800.0, 1e-4
        mm = [halfline_m(z, xx, a0, spec, tol=1e-12).M
              for xx in (x - h, x, x + h)]
        deriv = (mm[2] - mm[0]) / (2 * h)
        residual = matnorm(deriv - riccati_rhs(z, mm[1], spec.eval(x)))
        assert residual < 1e-6


class TestTransferCarry:
    """Both flows are Moebius images of Propagator transfers, so they are
    exact to roundoff wherever the transfers are."""

    @pytest.mark.parametrize("spec, z", [(smooth_bump_spec(n=801), 2 + 1j),
                                         (kp2_spec(), 0.7 + 0.9j),
                                         (smooth_bump_spec(n=801), 2 - 1j),
                                         (kp2_spec(), 0.7 - 0.9j)],
                             ids=["bump801", "kp2", "bump801-lower",
                                  "kp2-lower"])
    def test_matches_halfline_at_every_node(self, spec, z):
        a0 = alpha_dirichlet(spec.m)
        tr = integrate_riccati(z, halfline_m(z, 0.0, a0, spec).M, 0.0, 1.0,
                               spec)
        worst = max(matnorm(v - halfline_m(z, x, a0, spec).M)
                    for x, v in zip(tr.xs, tr.vs))
        assert worst <= 1e-12

    def test_pole_located_for_m2(self, zero2):
        # the tan(z(1 - x)) channel has its pole at 1 - pi/2; the other
        # channel's pole, at 0.3 - pi/2, lies beyond x1 = -1
        z = 1.0 + 1e-9j
        v0 = np.diag([np.tan(z), np.tan(0.3 * z)])
        with pytest.raises(PoleEncountered) as err:
            integrate_riccati(z, v0, 0.0, -1.0, zero2)
        assert abs(err.value.last_x - (1.0 - math.pi / 2)) < 1e-6

    def test_no_false_pole(self, zero1):
        # |V| = |tan(z(1 - x))| peaks near 1/Im z = 1e3 at x = 1 - pi/2,
        # far below the pole limit
        z = 1.0 + 1e-3j
        tr = integrate_riccati(z, np.array([[np.tan(z)]]), 0.0, -1.0, zero1)
        want = np.tan(z * (1.0 - tr.xs))
        assert np.max(np.abs(tr.vs[:, 0, 0] - want) / np.abs(want)) < 1e-12

    @pytest.mark.parametrize("n_out", [1, 0, -3])
    def test_n_out_below_two_rejected(self, n_out, zero1, monkeypatch):
        def no_transfer(*args, **kwargs):
            raise AssertionError("transfer taken")

        monkeypatch.setattr(Propagator, "transfer", no_transfer)
        with pytest.raises(DegenerateArguments, match="n_out"):
            integrate_riccati(1j, np.array([[1j]]), 0.0, 1.0, zero1,
                              n_out=n_out)
        with pytest.raises(DegenerateArguments, match="n_out"):
            integrate_cayley(1j, np.zeros((1, 1)), 0.0, 1.0, zero1, 1,
                             n_out=n_out)

    def test_flows_load_no_scipy(self):
        import diracweyl
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            diracweyl.__file__)))
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from diracweyl import PotentialSpec, integrate_cayley, "
            "integrate_riccati\n"
            "spec = PotentialSpec.zero(1)\n"
            "integrate_riccati(1j, np.array([[0.5j]]), 0.0, 1.0, spec)\n"
            "integrate_cayley(1j, np.zeros((1, 1)), 0.0, 1.0, spec, 1)\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))\n")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["[]"]
