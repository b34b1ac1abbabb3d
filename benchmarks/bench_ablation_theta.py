"""ABL1 — the exact theta-family solver against a dense grid.

The theta-family kernel solves its (theta1, theta2) optimization
exactly, as a two-variable LP (:func:`family_pair_bound`).  A dense
``DENSE x DENSE`` grid of :func:`family_delay_for_thetas` over the
region where the optimum lies, ``[sigma_i / C_i, 2 (sigma_i +
sigma12) / C_i]``, stays as the oracle it must beat.  On every subsystem
an IntegratedAnalysis solves over a tandem sweep and seeded random
networks, this bench checks:

* ``lp_le_grid`` — the LP bound is at most the grid minimum (up to
  1e-12 relative);
* ``below_gate`` — subsystems whose LP bound falls below its own gate
  ``S1 + S2 - t0``, the first instant the composed service curve can
  serve anything (must be empty);
* ``solve_speedup`` — the dense grid's time over the LP's (gated at
  ``MIN_SPEEDUP``x).

Runs two ways:

* ``python benchmarks/bench_ablation_theta.py`` — standalone, writes
  the root-level ``BENCH_theta.json`` (via ``_artifacts``) and exits
  non-zero on a gate failure.  ``REPRO_BENCH_QUICK=1`` selects the
  reduced CI configuration.
* ``pytest benchmarks/bench_ablation_theta.py`` — the grid-resolution
  table, the LP solve timing and the quick gate as tests.
"""

import sys
import time

import numpy as np

import repro.core.subsystem as subsystem
from repro.core.fifo_family import (
    affine_envelope,
    family_delay_for_thetas,
    family_pair_bound,
)
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.network.generators import random_feedforward
from repro.network.tandem import build_tandem

try:  # package import (pytest / repo root) or script-dir import
    from benchmarks.conftest import emit
except ImportError:
    from conftest import emit


def subsystem_curves(u=0.8):
    rho = u / 4.0
    b = TokenBucket(1.0, rho, peak=1.0).constraint_curve()
    return (b + b).simplified(), b, (b + b).simplified()


#: Points per theta axis of the dense-grid oracle.
DENSE = 60
#: Grid resolutions of the ablation table.
RESOLUTIONS = (5, 9, 17, 25, 41, DENSE)
#: The LP solve must beat the dense grid by this factor (observed:
#: well over 100x).
MIN_SPEEDUP = 20.0


def _objective_args(f12, f1, f2, c1, c2):
    sigma1, rho1 = affine_envelope(f1)
    sigma2, rho2 = affine_envelope(f2)
    return (f12, sigma1, rho1, sigma2, rho2, c1, c2)


def grid_oracle(f12, f1, f2, c1, c2, n=DENSE):
    """Minimum of the objective over an ``n x n`` grid of the region
    where the optimum lies."""
    args = _objective_args(f12, f1, f2, c1, c2)
    _, sigma1, _, sigma2, _, _, _ = args
    sig12, _ = affine_envelope(f12)
    grid1 = np.linspace(sigma1 / c1, 2.0 * (sigma1 + sig12) / c1, n)
    grid2 = np.linspace(sigma2 / c2, 2.0 * (sigma2 + sig12) / c2, n)
    return min(family_delay_for_thetas(*args, float(t1), float(t2))
               for t1 in grid1.tolist() for t2 in grid2.tolist())


def gate(f12, f1, f2, c1, c2, theta1, theta2):
    """``S1 + S2 - t0``: no family member serves F12 before it."""
    _, sigma1, rho1, sigma2, rho2, _, _ = _objective_args(f12, f1, f2,
                                                          c1, c2)
    a1 = sigma1 - rho1 * theta1
    a2 = sigma2 - rho2 * theta2
    s1 = max(theta1, a1 / (c1 - rho1) if a1 > 0 else 0.0)
    s2 = max(theta2, a2 / (c2 - rho2) if a2 > 0 else 0.0)
    positive = np.flatnonzero(f12.y > 0)
    if positive.size:
        t0 = float(f12.x[max(int(positive[0]) - 1, 0)])
    elif f12.final_slope > 0:
        t0 = float(f12.x[-1])
    else:
        return 0.0
    return s1 + s2 - t0


def test_ablation_theta_table(benchmark):
    """How far a grid of each resolution lands above the exact LP."""
    f12, f1, f2 = benchmark.pedantic(subsystem_curves, rounds=1, iterations=1)
    exact = family_pair_bound(f12, f1, f2, 1.0, 1.0).delay_through
    rows = ["  grid      bound   above LP", f"    LP {exact:10.6f}"]
    for n in RESOLUTIONS:
        d = grid_oracle(f12, f1, f2, 1.0, 1.0, n)
        assert d >= exact * (1 - 1e-12)
        rows.append(f"{n:6d} {d:10.6f}   {d / exact - 1:8.2e}")
    emit("ABL1: theta-grid resolution vs the exact LP (pair at U=0.8)",
         "\n".join(rows))


def test_ablation_theta_timing(benchmark):
    f12, f1, f2 = subsystem_curves()
    res = benchmark(lambda: family_pair_bound(f12, f1, f2, 1.0, 1.0))
    assert res.delay_through > 0


# ----------------------------------------------------------------------
# exact LP vs the dense-grid oracle on real subsystems
# ----------------------------------------------------------------------

def networks(quick: bool):
    """``(label, network)``: a tandem sweep and seeded random nets."""
    hops = (2, 4) if quick else (2, 3, 4, 5, 6, 8)
    loads = (0.2, 0.5, 0.8) if quick else (0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                           0.7, 0.8, 0.9)
    peaks = (True,) if quick else (True, False)
    for n in hops:
        for u in loads:
            for peak in peaks:
                yield (f"tandem-{n}-{u:g}-{'peak' if peak else 'nopeak'}",
                       build_tandem(n, u, peak_limited=peak))
    for seed in range(4 if quick else 40):
        yield f"random-{seed}", random_feedforward(seed, n_servers=6,
                                                   n_flows=16)


def subsystems(quick: bool):
    """``(label, (f12, f1, f2, c1, c2))`` for every theta solve a cold
    IntegratedAnalysis makes on :func:`networks`."""
    cases = []
    label = ""

    def recording(*args):
        cases.append((label, args))
        return family_pair_bound(*args)

    original = subsystem.family_pair_bound
    subsystem.family_pair_bound = recording
    try:
        for label, network in networks(quick):
            IntegratedAnalysis().analyze(network)
    finally:
        subsystem.family_pair_bound = original
    return cases


def run_bench(quick: bool) -> dict:
    cases = subsystems(quick)
    above_grid: list[str] = []
    below_gate: list[str] = []
    lp_s = grid_s = 0.0
    for k, (label, args) in enumerate(cases):
        t0 = time.perf_counter()
        res = family_pair_bound(*args)
        t1 = time.perf_counter()
        oracle = grid_oracle(*args)
        t2 = time.perf_counter()
        lp_s += t1 - t0
        grid_s += t2 - t1
        where = f"{label} solve {k}"
        if res.delay_through > oracle * (1 + 1e-12):
            above_grid.append(f"{where}: LP {res.delay_through!r} > "
                              f"grid {oracle!r}")
        floor = gate(*args, res.theta1, res.theta2)
        if res.delay_through < floor:
            below_gate.append(f"{where}: {res.delay_through!r} < gate "
                              f"{floor!r} at theta=({res.theta1!r}, "
                              f"{res.theta2!r})")
    speedup = grid_s / lp_s
    failures = above_grid + below_gate
    if speedup < MIN_SPEEDUP:
        failures.append(f"LP only {speedup:.1f}x faster than the "
                        f"{DENSE}x{DENSE} grid (gate: >= {MIN_SPEEDUP:g}x)")
    return {
        "quick": quick,
        "subsystems": len(cases),
        "dense": DENSE,
        "lp_ms_per_solve": 1e3 * lp_s / len(cases),
        "grid_ms_per_solve": 1e3 * grid_s / len(cases),
        "solve_speedup": speedup,
        "min_speedup_gate": MIN_SPEEDUP,
        "lp_le_grid": not above_grid,
        "above_grid": above_grid[:20],
        "below_gate": below_gate[:20],
        "failures": failures[:40],
    }


def test_theta_bench_quick():
    result = run_bench(quick=True)
    assert result["lp_le_grid"], result["above_grid"]
    assert not result["below_gate"], result["below_gate"]
    assert result["solve_speedup"] >= MIN_SPEEDUP


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
    print(f"BENCH-THETA ({'quick' if quick else 'full'}): "
          f"{result['subsystems']} subsystems, LP "
          f"{result['lp_ms_per_solve']:.2f} ms vs {DENSE}x{DENSE} grid "
          f"{result['grid_ms_per_solve']:.1f} ms per solve "
          f"({result['solve_speedup']:.0f}x), lp_le_grid="
          f"{result['lp_le_grid']}, below_gate="
          f"{len(result['below_gate'])} -> {out}")
    for failure in result["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
