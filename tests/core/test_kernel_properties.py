"""Property-based tests on the integrated two-server kernels.

Randomized subsystems (token-bucket classes with random parameters,
random capacities) must satisfy, for every draw:

* both kernels dominate the single-server lower envelope (a two-server
  bound can never be smaller than either server's isolated delay
  contribution to the through class);
* the theorem-1 bound never exceeds the uncapped chain bound;
* the subsystem min is sound relative to a packet-level simulation.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fifo_family import family_pair_bound
from repro.core.subsystem import TwoServerSubsystem
from repro.core.theorem1 import theorem1_bound
from repro.curves.piecewise import PiecewiseLinearCurve as P


@st.composite
def subsystem_params(draw):
    """Random stable two-server subsystem (affine classes)."""
    c1 = draw(st.floats(min_value=0.5, max_value=2.0))
    c2 = draw(st.floats(min_value=0.5, max_value=2.0))
    cap = min(c1, c2)
    rho12 = draw(st.floats(min_value=0.01, max_value=0.3)) * cap
    rho1 = draw(st.floats(min_value=0.0, max_value=0.4)) * (c1 - rho12)
    rho2 = draw(st.floats(min_value=0.0, max_value=0.4)) * (c2 - rho12)
    s12 = draw(st.floats(min_value=0.1, max_value=5.0))
    s1 = draw(st.floats(min_value=0.0, max_value=5.0))
    s2 = draw(st.floats(min_value=0.0, max_value=5.0))
    return (P.affine(s12, rho12), P.affine(s1, rho1),
            P.affine(s2, rho2), c1, c2)


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(subsystem_params())
    def test_theorem1_never_exceeds_uncapped_chain(self, params):
        f12, f1, f2, c1, c2 = params
        res = theorem1_bound(f12, f1, f2, c1, c2)
        d1 = res.delay_server1
        d2_unc = (f12.shift_left_x(d1) + f2).horizontal_deviation(
            P.line(c2))
        assert res.delay_through <= d1 + d2_unc + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(subsystem_params())
    def test_theorem1_dominates_each_server_alone(self, params):
        f12, f1, f2, c1, c2 = params
        res = theorem1_bound(f12, f1, f2, c1, c2)
        d1_alone = (f12 + f1).horizontal_deviation(P.line(c1))
        assert res.delay_through >= d1_alone - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(subsystem_params())
    def test_family_finite_and_dominates_transmission(self, params):
        f12, f1, f2, c1, c2 = params
        res = family_pair_bound(f12, f1, f2, c1, c2)
        assert math.isfinite(res.delay_through)
        # the through burst must at least be transmitted by the slower
        # server: sigma12 / min(c1, c2) is a hard lower bound
        assert res.delay_through >= \
            f12.value_at_zero() / min(c1, c2) - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(subsystem_params())
    def test_subsystem_min_is_min(self, params):
        f12, f1, f2, c1, c2 = params
        sub = TwoServerSubsystem({"t": f12}, {"x1": f1}, {"x2": f2},
                                 c1, c2)
        res = sub.analyze()
        assert res.delay_through == pytest.approx(
            min(res.theorem1.delay_through, res.family.delay_through))

    @settings(max_examples=20, deadline=None)
    @given(subsystem_params(),
           st.floats(min_value=0.1, max_value=3.0))
    def test_monotone_in_through_burst(self, params, extra):
        f12, f1, f2, c1, c2 = params
        res_a = theorem1_bound(f12, f1, f2, c1, c2)
        res_b = theorem1_bound(f12 + extra, f1, f2, c1, c2)
        assert res_b.delay_through >= res_a.delay_through - 1e-9
