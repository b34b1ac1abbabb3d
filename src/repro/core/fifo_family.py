"""FIFO leftover-service-curve family for a two-server subsystem.

The second integrated kernel: the rigorous min-plus counterpart of the
paper's server integration, based on the FIFO residual-service family
(Cruz [10]; Le Boudec & Thiran, Prop. 6.2.1).  For a FIFO server of rate
``C`` whose *cross* traffic is bounded by the affine curve
``sigma_x + rho_x t``, the through traffic is guaranteed, for every
parameter ``theta >= 0``, the service curve

``beta_theta(t) = [C t - sigma_x - rho_x (t - theta)]^+ * 1{t > theta}``

Composing one family member per server and minimizing the horizontal
deviation over ``(theta1, theta2)`` yields an end-to-end bound that
"pays the through burst only once" across the pair — the same
integration principle as Theorem 1, reached through the service-curve
formalism.  Taking the *minimum* of this bound and the Theorem-1 bound
is sound (both are valid upper bounds).

The composition has the closed form (derived in the module tests by
brute force):

``(beta1_t1 ⊗ beta2_t2)(t) = 0`` for ``t <= t1 + t2`` and otherwise
``min( beta1(t - t2), beta2(t - t1) )``

so the delay bound for through curve ``F12`` is computed exactly — no
grids — from the levels at which each branch crosses ``F12``.

On ``theta_i >= sigma_i / C_i`` (where the optimum lies) that bound is
the maximum of three affine functions of ``(theta1, theta2)``, so the
best family member is found exactly by evaluating the bound at the few
vertices of a two-variable linear program (:func:`family_pair_bound`).

General concave cross curves are soundly reduced to their affine upper
envelope first (:func:`affine_envelope`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.curves.piecewise import PiecewiseLinearCurve
from repro.utils.validation import check_positive

__all__ = ["FAMILY_SOLVER", "FamilyResult", "affine_envelope",
           "family_pair_bound", "family_delay_for_thetas"]

#: Version tag of the (theta1, theta2) solver.  Bounds computed by a
#: different solver differ in the last bits at least, so engine keys,
#: store segments and journals carry this tag and miss (recompute)
#: rather than fail bit-for-bit re-verification when it changes.
FAMILY_SOLVER = "lp1"


@dataclass(frozen=True)
class FamilyResult:
    """Outcome of the theta-family optimization for one subsystem."""

    delay_through: float
    theta1: float
    theta2: float


def affine_envelope(curve: PiecewiseLinearCurve) -> tuple[float, float]:
    """Smallest affine upper bound ``(sigma, rho)`` with ``rho`` equal to
    the curve's long-term rate.

    For a concave curve this is tight at infinity; for a general curve
    the burst term is the vertical deviation from the ``rho t`` line.
    """
    rho = curve.long_term_rate()
    line = PiecewiseLinearCurve.line(rho)
    sigma = curve.vertical_deviation(line)
    if not math.isfinite(sigma):
        raise ValueError("curve has no affine envelope at its long-term "
                         "rate (increasing slopes?)")
    return max(0.0, sigma), rho


def _rise_index(f12: PiecewiseLinearCurve) -> int | None:
    """Index ``k`` of the breakpoint where ``F12`` leaves zero, so that
    ``x[k] = inf{t : F12(t) > 0}``; None when ``F12`` is never positive."""
    positive = np.flatnonzero(f12.y > 0)
    if positive.size:
        return max(int(positive[0]) - 1, 0)
    return f12.y.size - 1 if f12.final_slope > 0 else None


def family_delay_for_thetas(f12: PiecewiseLinearCurve,
                            sigma1: float, rho1: float,
                            sigma2: float, rho2: float,
                            c1: float, c2: float,
                            theta1: float, theta2: float) -> float:
    """Exact delay bound for one ``(theta1, theta2)`` family member.

    ``sigma_i, rho_i`` describe the affine cross-traffic envelope at
    server ``i``; ``f12`` is the through-aggregate constraint curve.
    """
    r1 = c1 - rho1
    r2 = c2 - rho2
    if r1 <= 0 or r2 <= 0 or f12.long_term_rate() >= min(r1, r2):
        return math.inf
    a1 = sigma1 - rho1 * theta1
    a2 = sigma2 - rho2 * theta2
    # Server i's leftover curve [r_i t - a_i]^+ . 1{t > theta_i} is 0 up
    # to its effective start S_i = max(theta_i, a_i / r_i): below the
    # latency a_i / r_i the positive part, not the gate, holds it at 0.
    # The composition (beta1 ⊗ beta2)(t) = min(beta1(t - S2),
    # beta2(t - S1)) for t > S1 + S2 (0 before); each branch jumps to
    # J_i = [r_i S_i - a_i]^+ at its start.
    s1 = max(theta1, a1 / r1 if a1 > 0 else 0.0)
    s2 = max(theta2, a2 / r2 if a2 > 0 else 0.0)
    gate = s1 + s2
    jump1 = max(0.0, r1 * s1 - a1)
    jump2 = max(0.0, r2 * s2 - a2)

    def tau(v: float) -> float:
        """First time the composition reaches level ``v``."""
        if v <= 0:
            return 0.0
        t_a = gate if v <= jump1 else s2 + (a1 + v) / r1
        t_b = gate if v <= jump2 else s1 + (a2 + v) / r2
        return max(gate, t_a, t_b)

    # Candidate maximizers of tau(F12(t)) - t: the through curve's
    # breakpoints plus the pre-images of the branch jump levels (where
    # tau kinks).
    best = 0.0
    for t, v in zip(f12.x.tolist(), f12.y.tolist()):
        best = max(best, tau(v) - t)
    levels = [lv for lv in (jump1, jump2) if lv > 0]
    if levels:
        inv = f12.pseudo_inverse(np.asarray(levels)).tolist()
        ts = [t for t in inv if math.isfinite(t) and t >= 0]
        if ts:
            for t, v in zip(ts, f12(np.asarray(ts)).tolist()):
                best = max(best, tau(v) - t)
    # ... and the right limit at t0 = inf{t : F12(t) > 0}, which no
    # breakpoint attains when F12(t0) = 0 (every peak-limited aggregate
    # at t0 = 0): there tau(0+) = max(gate, S2 + a1/r1, S1 + a2/r2).
    k = _rise_index(f12)
    if k is not None:
        best = max(best, max(gate, s2 + a1 / r1, s1 + a2 / r2)
                   - float(f12.x[k]))
    return best


def _lp_vertices(f12: PiecewiseLinearCurve,
                 sigma1: float, rho1: float,
                 sigma2: float, rho2: float,
                 c1: float, c2: float) -> list[tuple[float, float]]:
    """Vertices of the two-variable LP that the family optimum solves.

    For ``theta_i < sigma_i / C_i`` every term of the bound is
    nonincreasing in ``theta_i``, so some optimum has ``theta_i >= l_i
    = sigma_i / C_i``.  There ``S_i = theta_i``, ``tau`` is continuous on
    ``v > 0`` and the bound is ``max(0, L0, L1, L2)`` with

    * ``L0 = theta1 + theta2 - t0``,
    * ``L1 = theta2 + (sigma1 - rho1 theta1 + M1) / R1``,
    * ``L2 = theta1 + (sigma2 - rho2 theta2 + M2) / R2``,

    ``R_i = C_i - rho_i``, ``t0 = inf{t : F12(t) > 0}`` and ``M_i =
    sup_{t >= t0} F12(t) - R_i t`` (a maximum over breakpoints: the
    final slope is below ``R_i``).  ``max(0, .)`` keeps minimizers, and
    the minimum of a maximum of affine functions over the quadrant
    ``theta >= l`` lies at its corner, where a line ``L_j = L_k``
    crosses a side, or where all three are equal.
    Returns those points (corner first), clipped onto the quadrant.
    """
    k = _rise_index(f12)
    l1, l2 = sigma1 / c1, sigma2 / c2
    if k is None:  # F12 = 0: every member bounds the delay by 0
        return [(l1, l2)]
    r1, r2 = c1 - rho1, c2 - rho2
    xs, ys = f12.x[k:], f12.y[k:]
    m1 = float(np.max(ys - r1 * xs))
    m2 = float(np.max(ys - r2 * xs))
    # L_j(theta) = p_j theta1 + q_j theta2 + e_j
    lines = ((1.0, 1.0, -float(f12.x[k])),
             (-rho1 / r1, 1.0, (sigma1 + m1) / r1),
             (1.0, -rho2 / r2, (sigma2 + m2) / r2))
    # L_j - L_k = p theta1 + q theta2 + e
    diffs = [(pj - pk, qj - qk, ej - ek)
             for i, (pj, qj, ej) in enumerate(lines)
             for (pk, qk, ek) in lines[i + 1:]]
    points = [(l1, l2)]
    for p, q, e in diffs:
        if q != 0:
            points.append((l1, -(p * l1 + e) / q))
        if p != 0:
            points.append((-(q * l2 + e) / p, l2))
    (pa, qa, ea), (pb, qb, eb) = diffs[0], diffs[2]
    det = pa * qb - pb * qa
    if det != 0:
        points.append(((qa * eb - qb * ea) / det, (pb * ea - pa * eb) / det))
    out: list[tuple[float, float]] = []
    for t1, t2 in points:
        if math.isfinite(t1) and math.isfinite(t2):
            vertex = (max(t1, l1), max(t2, l2))
            if vertex not in out:
                out.append(vertex)
    return out


def family_pair_bound(f12: PiecewiseLinearCurve,
                      f1: PiecewiseLinearCurve,
                      f2: PiecewiseLinearCurve,
                      c1: float, c2: float) -> FamilyResult:
    """Best theta-family bound for a two-server subsystem.

    Parameters
    ----------
    f12, f1, f2:
        Through / server-1-cross / server-2-cross constraint sums
        (same conventions as :func:`repro.core.theorem1.theorem1_bound`).
    c1, c2:
        Server capacities.

    The optimum is one of the LP vertices of :func:`_lp_vertices`; the
    bound returned is :func:`family_delay_for_thetas` at the best of
    them, so it is sound whatever the LP algebra's rounding.
    """
    check_positive("c1", c1)
    check_positive("c2", c2)
    sigma1, rho1 = affine_envelope(f1)
    sigma2, rho2 = affine_envelope(f2)
    r1, r2 = c1 - rho1, c2 - rho2
    if r1 <= 0 or r2 <= 0 or f12.long_term_rate() >= min(r1, r2):
        return FamilyResult(math.inf, 0.0, 0.0)

    best = (math.inf, 0.0, 0.0)
    for theta1, theta2 in _lp_vertices(f12, sigma1, rho1, sigma2, rho2,
                                       c1, c2):
        delay = family_delay_for_thetas(f12, sigma1, rho1, sigma2, rho2,
                                        c1, c2, theta1, theta2)
        if delay < best[0]:
            best = (delay, theta1, theta2)
    return FamilyResult(delay_through=best[0], theta1=best[1],
                        theta2=best[2])
