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

General concave cross curves are soundly reduced to their affine upper
envelope first (:func:`affine_envelope`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.curves.piecewise import PiecewiseLinearCurve
from repro.utils.validation import check_positive

__all__ = ["FamilyResult", "affine_envelope", "family_pair_bound",
           "family_delay_for_thetas"]


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
    return best


def _max(a, b):
    """Elementwise ``max(a, b)`` with Python's tie and NaN rule."""
    return np.where(b > a, b, a)


def _grid_delays(f12: PiecewiseLinearCurve,
                 sigma1: float, rho1: float,
                 sigma2: float, rho2: float,
                 c1: float, c2: float,
                 theta1, theta2) -> np.ndarray:
    """:func:`family_delay_for_thetas` over broadcast theta arrays.

    Evaluates the same expressions in the same order, elementwise, so
    every entry is bit-identical to the scalar objective at that
    ``(theta1, theta2)``.  Per-server quantities keep their operand's
    shape, so an outer grid (``theta1`` a column, ``theta2`` a row)
    inverts each axis's jump levels once rather than once per point.
    """
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    shape = np.broadcast_shapes(theta1.shape, theta2.shape)
    r1 = c1 - rho1
    r2 = c2 - rho2
    if r1 <= 0 or r2 <= 0 or f12.long_term_rate() >= min(r1, r2):
        return np.full(shape, math.inf)
    a1 = sigma1 - rho1 * theta1
    a2 = sigma2 - rho2 * theta2
    s1 = _max(theta1, np.where(a1 > 0, a1 / r1, 0.0))
    s2 = _max(theta2, np.where(a2 > 0, a2 / r2, 0.0))
    gate = s1 + s2
    jump1 = _max(0.0, r1 * s1 - a1)
    jump2 = _max(0.0, r2 * s2 - a2)

    def slack(v, t, k=()):
        """``tau(v) - t``; ``k`` appends a candidate axis."""
        g, j1, j2 = gate[k], jump1[k], jump2[k]
        t_a = np.where(v <= j1, g, s2[k] + (a1[k] + v) / r1)
        t_b = np.where(v <= j2, g, s1[k] + (a2[k] + v) / r2)
        return np.where(v <= 0, 0.0, _max(_max(g, t_a), t_b)) - t

    best = slack(f12.y, f12.x, (..., None)).max(axis=-1)
    # Jump-level pre-images: one inverse over every positive level of
    # both servers, one evaluation of the finite ones.
    levels = np.concatenate([jump1.ravel(), jump2.ravel()])
    inv = np.full(levels.shape, math.nan)
    positive = levels > 0
    if positive.any():
        inv[positive] = f12.pseudo_inverse(levels[positive])
    usable = np.isfinite(inv) & (inv >= 0)
    value = np.zeros(levels.shape)
    if usable.any():
        value[usable] = f12(inv[usable])
    n1 = jump1.size
    for part, part_shape in ((slice(None, n1), jump1.shape),
                             (slice(n1, None), jump2.shape)):
        t, v, ok = (a[part].reshape(part_shape) for a in (inv, value, usable))
        best = _max(best, np.where(ok, slack(v, t), -math.inf))
    return _max(0.0, best)


def family_pair_bound(f12: PiecewiseLinearCurve,
                      f1: PiecewiseLinearCurve,
                      f2: PiecewiseLinearCurve,
                      c1: float, c2: float,
                      coarse: int = 25,
                      refine: bool = True) -> FamilyResult:
    """Best theta-family bound for a two-server subsystem.

    Parameters
    ----------
    f12, f1, f2:
        Through / server-1-cross / server-2-cross constraint sums
        (same conventions as :func:`repro.core.theorem1.theorem1_bound`).
    c1, c2:
        Server capacities.
    coarse:
        Grid points per theta axis for the initial sweep.
    refine:
        Run a Nelder–Mead polish from the best grid point.
    """
    check_positive("c1", c1)
    check_positive("c2", c2)
    sigma1, rho1 = affine_envelope(f1)
    sigma2, rho2 = affine_envelope(f2)
    if c1 - rho1 <= 0 or c2 - rho2 <= 0:
        return FamilyResult(math.inf, 0.0, 0.0)

    sig12, _ = affine_envelope(f12)
    # The interesting theta range: up to the time scale where jumps
    # exceed every relevant through level ~ (sig12 + sigma_x)/C.  The
    # range is kept proportional to the problem's own burst scale so the
    # optimization is invariant under joint rescaling of all bursts.
    scale1 = sigma1 + sig12
    scale2 = sigma2 + sig12
    tmax1 = 2.0 * scale1 / c1 if scale1 > 0 else 1.0 / c1
    tmax2 = 2.0 * scale2 / c2 if scale2 > 0 else 1.0 / c2

    # The coarse grid in one vectorized pass; np.argmin keeps the first
    # minimum in row-major (theta1-major) order, the scalar sweep's tie
    # rule.
    grid1 = np.linspace(0.0, tmax1, coarse)
    grid2 = np.linspace(0.0, tmax2, coarse)
    delays = _grid_delays(f12, sigma1, rho1, sigma2, rho2, c1, c2,
                          grid1[:, None], grid2[None, :])
    best = (math.inf, 0.0, 0.0)
    if delays.size:
        i, j = np.unravel_index(np.argmin(delays), delays.shape)
        if delays[i, j] < best[0]:
            best = (float(delays[i, j]), float(grid1[i]), float(grid2[j]))

    if refine and math.isfinite(best[0]):
        from scipy import optimize  # deferred: ~0.7 s of import time

        res = optimize.minimize(
            lambda th: family_delay_for_thetas(
                f12, sigma1, rho1, sigma2, rho2, c1, c2,
                max(th[0], 0.0), max(th[1], 0.0)),
            x0=np.array([best[1], best[2]]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400},
        )
        if res.fun < best[0]:
            best = (float(res.fun), float(max(res.x[0], 0.0)),
                    float(max(res.x[1], 0.0)))

    return FamilyResult(delay_through=best[0], theta1=best[1],
                        theta2=best[2])
