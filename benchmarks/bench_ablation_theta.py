"""ABL1 — theta-search resolution ablation for the family kernel.

The theta-family kernel sweeps a coarse (theta1, theta2) grid and
optionally polishes with Nelder–Mead.  This bench quantifies the
tightness/runtime trade-off of the grid resolution — the integrated
method's only tunable knob — and gates the vectorized grid:

* ``bit_identical`` — on the subsystems of the paper's tandem pair over
  a load sweep, ``_grid_delays`` equals the scalar objective
  :func:`family_delay_for_thetas` hex for hex at every grid point;
* ``grid_speedup`` — the per-point scalar loop over those points
  against one ``_grid_delays`` pass (gated at ``MIN_SPEEDUP``x).

Runs two ways:

* ``python benchmarks/bench_ablation_theta.py`` — standalone, writes
  the root-level ``BENCH_theta.json`` (via ``_artifacts``) and exits
  non-zero on a gate failure.  ``REPRO_BENCH_QUICK=1`` selects the
  reduced CI configuration.
* ``pytest benchmarks/bench_ablation_theta.py`` — the ablation tables,
  timings and the quick gate as tests.
"""

import sys
import time

import numpy as np
import pytest

from repro.core.fifo_family import (
    _grid_delays,
    affine_envelope,
    family_delay_for_thetas,
    family_pair_bound,
)
from repro.curves.token_bucket import TokenBucket

try:  # package import (pytest / repo root) or script-dir import
    from benchmarks.conftest import emit
except ImportError:
    from conftest import emit


def subsystem_curves(u=0.8):
    rho = u / 4.0
    b = TokenBucket(1.0, rho, peak=1.0).constraint_curve()
    return (b + b).simplified(), b, (b + b).simplified()


RESOLUTIONS = (5, 9, 17, 25, 41)

#: The vectorized grid must beat the per-point scalar loop by this
#: factor (observed: well over 20x at coarse=25).
MIN_SPEEDUP = 5.0


def test_ablation_theta_table(benchmark):
    f12, f1, f2 = benchmark.pedantic(subsystem_curves, rounds=1, iterations=1)
    rows = ["coarse   refine    bound"]
    for coarse in RESOLUTIONS:
        for refine in (False, True):
            res = family_pair_bound(f12, f1, f2, 1.0, 1.0,
                                    coarse=coarse, refine=refine)
            rows.append(f"{coarse:6d}   {str(refine):6s} "
                        f"{res.delay_through:10.6f}")
    emit("ABL1: theta-grid resolution ablation (pair at U=0.8)",
         "\n".join(rows))


@pytest.mark.parametrize("coarse", [5, 25])
def test_ablation_theta_timing(benchmark, coarse):
    f12, f1, f2 = subsystem_curves()
    res = benchmark(lambda: family_pair_bound(
        f12, f1, f2, 1.0, 1.0, coarse=coarse))
    assert res.delay_through > 0


def test_refinement_monotone(benchmark):
    """Finer grids and refinement can only tighten the bound."""
    f12, f1, f2 = benchmark.pedantic(subsystem_curves, rounds=1,
                                     iterations=1)
    bounds = [family_pair_bound(f12, f1, f2, 1.0, 1.0, coarse=c,
                                refine=False).delay_through
              for c in RESOLUTIONS]
    refined = family_pair_bound(f12, f1, f2, 1.0, 1.0, coarse=25,
                                refine=True).delay_through
    # not strictly monotone (grids are not nested), but the refined
    # bound must be at least as tight as every coarse sweep here
    assert refined <= min(bounds) + 1e-9


# ----------------------------------------------------------------------
# vectorized grid vs per-point scalar loop
# ----------------------------------------------------------------------

def _grid_case(u: float, coarse: int):
    """The objective's arguments and the coarse theta axes of
    :func:`family_pair_bound` for the tandem pair at load ``u``."""
    f12, f1, f2 = subsystem_curves(u)
    sigma1, rho1 = affine_envelope(f1)
    sigma2, rho2 = affine_envelope(f2)
    sig12, _ = affine_envelope(f12)
    args = (f12, sigma1, rho1, sigma2, rho2, 1.0, 1.0)
    axes = (np.linspace(0.0, 2.0 * (sigma1 + sig12), coarse),
            np.linspace(0.0, 2.0 * (sigma2 + sig12), coarse))
    return args, axes


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(quick: bool) -> dict:
    loads = (0.2, 0.5, 0.8) if quick else (0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                           0.7, 0.8, 0.9)
    coarse = 25
    repeats = 3 if quick else 7
    mismatches: list[str] = []
    scalar_s = grid_s = 0.0
    points = 0
    for u in loads:
        args, (grid1, grid2) = _grid_case(u, coarse)

        def scalar():
            return [[family_delay_for_thetas(*args, float(t1), float(t2))
                     for t2 in grid2] for t1 in grid1]

        def vectorized():
            return _grid_delays(*args, grid1[:, None], grid2[None, :])

        want, got = scalar(), vectorized()
        for i, row in enumerate(want):
            for j, d in enumerate(row):
                if float(got[i, j]).hex() != float(d).hex():
                    mismatches.append(f"U={u:g} theta=({grid1[i]!r}, {grid2[j]!r}): "
                                      f"grid {float(got[i, j])!r} != scalar {d!r}")
        scalar_s += _best_of(scalar, repeats)
        grid_s += _best_of(vectorized, repeats)
        points += grid1.size * grid2.size
    speedup = scalar_s / grid_s
    failures = list(mismatches)
    if speedup < MIN_SPEEDUP:
        failures.append(f"grid only {speedup:.1f}x faster than the scalar "
                        f"loop (gate: >= {MIN_SPEEDUP:g}x)")
    return {
        "quick": quick,
        "loads": list(loads),
        "coarse": coarse,
        "points": points,
        "scalar_us_per_point": 1e6 * scalar_s / points,
        "grid_us_per_point": 1e6 * grid_s / points,
        "grid_speedup": speedup,
        "min_speedup_gate": MIN_SPEEDUP,
        "bit_identical": not mismatches,
        "mismatches": mismatches[:20],
        "failures": failures,
    }


def test_theta_bench_quick():
    result = run_bench(quick=True)
    assert result["bit_identical"], result["mismatches"]
    assert result["grid_speedup"] >= MIN_SPEEDUP


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------

def main() -> int:
    try:  # package import (repo root) or script-dir import
        from benchmarks._artifacts import bench_quick, write_artifact
    except ImportError:
        from _artifacts import bench_quick, write_artifact

    quick = bench_quick()
    result = run_bench(quick=quick)
    out = write_artifact("theta", result)
    print(f"BENCH-THETA ({'quick' if quick else 'full'}): {result['points']} "
          f"grid points, scalar {result['scalar_us_per_point']:.1f}us vs grid "
          f"{result['grid_us_per_point']:.2f}us per point "
          f"({result['grid_speedup']:.1f}x), bit_identical="
          f"{result['bit_identical']} -> {out}")
    for failure in result["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
