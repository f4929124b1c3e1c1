import math

import numpy as np
import pytest

from conftest import flow_row, make_machine, read_stdp_csv
from flowbm.mpf import gradient_and_objective
from exact_oracles import stdp_update
from flowbm.stdp import emit_stdp_csv, stdp_curve


class TestStdpUpdate:
    def test_resting_presynaptic_never_updates(self):
        for alpha in (0.5, -0.5):
            for delta in (0.1, 2.0, 17.0):
                assert stdp_update(0, alpha, delta) == 0.0

    def test_post_excitation_potentiates(self):
        # post transitions to 1 => alpha = -1/2; update = +delta/2 per unit
        # of proportionality, here +1 with delta = 2.
        assert stdp_update(1, -0.5, 2.0) == 1.0

    def test_post_rest_depresses(self):
        assert stdp_update(1, 0.5, 2.0) == -1.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            stdp_update(1, 0.5, 0.0)

    def test_symmetric_edge_update_combines_two_local_terms(self):
        # The symmetric-edge gradient is exactly the sum of the two local
        # single-synapse updates, for every bit pattern.
        for y_i in (0, 1):
            for y_j in (0, 1):
                m = make_machine(2, seed=y_i * 2 + y_j)
                y = np.array([y_i, y_j])
                alpha, _, delta = flow_row(m, y)
                combined = stdp_update(y_j, alpha[0], delta[0]) + stdp_update(
                    y_i, alpha[1], delta[1]
                )
                g, _ = gradient_and_objective(m, y[None, :])
                # gradient returns the ascent direction; the applied update
                # is its negative, matching the local rule's sign.
                assert -m.block(0, 0, g.d_weights)[0, 1] == pytest.approx(
                    combined, rel=1e-12, abs=1e-15)


class TestStdpCurve:
    def test_positive_branch_closed_form(self):
        (point,) = stdp_curve(1.0, 1.0, [1.0])
        assert point.dw == math.exp(-1.0)
        assert point.dw == pytest.approx(0.36788, abs=1e-5)

    def test_negative_branch_closed_form(self):
        (point,) = stdp_curve(1.0, 1.0, [-1.0])
        assert point.dw == -math.exp(-1.0)

    def test_general_values(self):
        points = stdp_curve(2.0, 3.0, [0.25, -0.25])
        assert points[0].dw == pytest.approx((1 / 0.25) * math.exp(-2.0 * 0.25), rel=1e-14)
        assert points[1].dw == pytest.approx(-3.0 * math.exp(-3.0 * 0.25), rel=1e-14)

    def test_sign_antisymmetry_over_sweep(self):
        dts = [dt for dt in np.linspace(-0.1, 0.1, 201) if dt != 0.0]
        points = stdp_curve(1.5, 2.5, dts)
        for p in points:
            assert (p.dw > 0) == (p.dt > 0)

    def test_positive_branch_decreasing(self):
        eps = np.linspace(0.01, 2.0, 50)
        values = [p.dw for p in stdp_curve(1.0, 1.0, eps)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_branch_magnitude_decreasing_past_knee(self):
        # |dw| on the depression side decreases once delta_post * eps > 1.
        delta_post = 2.0
        eps = np.linspace(0.6, 3.0, 40)  # delta*eps from 1.2 up
        values = [abs(p.dw) for p in stdp_curve(1.0, delta_post, -eps)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_limits_near_origin(self):
        delta_post = 3.0
        (pos,) = stdp_curve(1.0, delta_post, [1e-6])
        (neg,) = stdp_curve(1.0, delta_post, [-1e-6])
        assert pos.dw > 1e5  # diverges like 1/eps
        assert neg.dw == pytest.approx(-delta_post, rel=1e-5)

    def test_rejects_zero_interval_and_bad_rates(self):
        with pytest.raises(ValueError):
            stdp_curve(1.0, 1.0, [0.0])
        with pytest.raises(ValueError):
            stdp_curve(0.0, 1.0, [1.0])

    def test_rejects_nonfinite_values_and_empty_sweep(self):
        # A nan rate or interval used to produce nan rows.
        for rates in ((math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                stdp_curve(*rates, [1.0])
        with pytest.raises(ValueError, match="finite"):
            stdp_curve(1.0, 1.0, [0.5, math.nan])
        with pytest.raises(ValueError, match="no spike-time"):
            stdp_curve(1.0, 1.0, [])


class TestStdpCsv:
    def test_empty_list_header_only(self, tmp_path):
        path = tmp_path / "curve.csv"
        emit_stdp_csv([], path)
        assert path.read_text() == "dt,dw\n"

    def test_roundtrip_exact(self, tmp_path):
        dts = [dt for dt in np.linspace(-0.1, 0.1, 200) if dt != 0.0]
        points = stdp_curve(1.0, 1.0, dts)
        path = tmp_path / "curve.csv"
        emit_stdp_csv(points, path)
        back = read_stdp_csv(path)
        assert len(back) == len(points) == 200
        for a, b in zip(points, back):
            assert a.dt == b.dt and a.dw == b.dw

    def test_sweep_row_count(self, tmp_path):
        dts = [dt for dt in np.linspace(-0.1, 0.1, 201) if dt != 0.0]
        assert len(dts) == 200
        path = tmp_path / "curve.csv"
        emit_stdp_csv(stdp_curve(1.0, 1.0, dts), path)
        assert len(path.read_text().strip().splitlines()) == 201  # header + 200
