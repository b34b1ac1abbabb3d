"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload admit-tandem --seed 1 --seconds 27 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; its
time metrics are scaled to a reference host speed by speed probes
taken between set-ups and between blocks of the timed phase.
``--trace 1`` runs the same work twice in one process, first plain and
then with every layer's entry points wrapped (``tracing.py``), and
reports the per-layer metrics plus ``trace.overhead``.  The last line
of standard output is the JSON result; the lines before it are
diagnostics (work fingerprint, host-speed probe, per-workload figures).
See ``perfbench/README.md`` for the metrics and workloads.
"""

import time

T_START = time.perf_counter()  # setup_s starts here, before the program is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: a seed kept out of tuning, for checking a claimed gain (see README)
HELDOUT_SEED = 90210
#: set-ups per run whose median is setup_s: this process's and fresh
#: ones run before the timed phase
SETUP_SAMPLES = 7
#: deterministic program counters that enter the work fingerprint
FINGERPRINT_PREFIXES = ("engine.", "store.", "curve.", "parallel.")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += (i * i) % 7
        best = min(best, time.perf_counter() - t0)
    return best


def fingerprint(answers, counters: dict) -> str:
    """Digest of every answer and the program's deterministic counters."""
    kept = {k: v for k, v in sorted(counters.items())
            if k.startswith(FINGERPRINT_PREFIXES) and not k.endswith(("_s", ".s"))}
    blob = json.dumps({"answers": answers, "counters": kept}, sort_keys=True, default=str)
    return hashlib.blake2b(blob.encode(), digest_size=12).hexdigest()


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scratch_root() -> Path:
    path = ROOT / ".perfbench-tmp"
    path.mkdir(exist_ok=True)
    return path


def new_workload(name: str, seed: int, seconds: int, scratch: Path):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, seconds, scratch)


def run_once(workload, tracer=None):
    """The timed phase (optionally traced) followed by the output checks."""
    if tracer is not None:
        tracer.install()
    try:
        result = workload.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    counters = workload.ctx.metrics.as_dict()
    result.failures += workload.check(result)
    workload.close()
    return result, counters


def fresh_setup(args) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def setup_samples(args, own: float) -> tuple[list[float], list[float]]:
    """This process's set-up time and SETUP_SAMPLES - 1 fresh ones, raw and
    scaled to the reference host by the speed probes taken between them."""
    from workloads import speed_probe, to_reference

    probes = [speed_probe()]
    raw, scaled = [own], [to_reference(own, (probes[0],))]
    for _ in range(SETUP_SAMPLES - 1):
        raw.append(fresh_setup(args))
        probes.append(speed_probe())
        scaled.append(to_reference(raw[-1], (probes[-2], probes[-1])))
    return raw, scaled


def report(workload, result, counters, extra: dict) -> str:
    line = {"workload": workload.name, "seed": workload.seed, "heldout_seed": HELDOUT_SEED,
            "fingerprint": fingerprint(result.answers, counters),
            "operations": result.ops, "latency_samples": len(result.latencies),
            "blocks": len(result.blocks), "busy_s": result.busy_s,
            **result.details, **extra}
    return "perfbench " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in line.items())


def measure(args, scratch: Path) -> dict:
    """--trace 0: end-to-end metrics."""
    from workloads import percentile

    workload = new_workload(args.workload, args.seed, args.seconds, scratch)
    workload.prepare()
    own_setup = time.perf_counter() - T_START
    setup, setup_ref, setup_error = [own_setup], [own_setup], None
    try:
        setup, setup_ref = setup_samples(args, own_setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        setup_error = f"set-up sample: {exc}"
    probe_before = host_probe()
    result, counters = run_once(workload)
    probe_after = host_probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if setup_error:
        result.failures.append(setup_error)
    if not result.latencies:
        raise SystemExit(f"perfbench: no operation of {workload.name} succeeded")
    blocks_s = sum(block.seconds for block in result.blocks)
    print(report(workload, result, counters,
                 {"raw_setup_s": statistics.median(setup),
                  "raw_ops_per_s": result.ops / blocks_s,
                  "raw_op_p90_ms": 1e3 * percentile(result.latencies, 0.9),
                  "raw_op_p50_ms": 1e3 * percentile(result.latencies, 0.5),
                  "op_p50_ms": 1e3 * percentile(result.reference_latencies, 0.5),
                  "host_probe_before_s": probe_before, "host_probe_after_s": probe_after,
                  "block_ops_per_s": ",".join(f"{b.ops / b.seconds:.4g}" for b in result.blocks),
                  "block_probe_s": ",".join(f"{b.probes[1]:.4g}" for b in result.blocks),
                  "setup_samples_s": ",".join(f"{s:.4f}" for s in setup)}))
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "ops_per_s": result.ops / result.reference_s,
        "op_p90_ms": 1e3 * percentile(result.reference_latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    return result_json(result, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()})


def trace(args, scratch: Path) -> dict:
    """--trace 1: per-layer metrics from a traced run of the same work."""
    from tracing import LayerTracer

    (scratch / "plain").mkdir()
    (scratch / "traced").mkdir()
    plain = new_workload(args.workload, args.seed, args.seconds, scratch / "plain")
    plain.prepare()
    plain_result, _ = run_once(plain)

    tracer = LayerTracer()
    traced = new_workload(args.workload, args.seed, args.seconds, scratch / "traced")
    traced.prepare()
    probe_before = host_probe()
    result, counters = run_once(traced, tracer)
    probe_after = host_probe()
    result.failures += [f"layer {layer} recorded no calls on {traced.name}"
                        for layer in traced.WORKING_LAYERS if tracer.calls(layer) == 0]
    result.failures += plain_result.failures + plain_result.errors
    overhead = result.reference_s / plain_result.reference_s - 1.0
    print(report(traced, result, counters,
                 {"host_probe_before_s": probe_before, "host_probe_after_s": probe_after,
                  "trace_overhead": overhead}))

    c = counters.get
    metrics = {name: (value, "s" if name.endswith("self_s") else "count")
               for name, value in tracer.metrics().items()}
    metrics |= {
        "engine.hit_ratio": (ratio(c("engine.hits", 0), c("engine.hits", 0)
                                   + c("engine.misses", 0)), "ratio"),
        "store.hit_ratio": (ratio(c("store.hits", 0), c("store.hits", 0)
                                  + c("store.misses", 0)), "ratio"),
        "batch.groups": (c("parallel.batch_groups", 0), "count"),
        "batch.serial_fallbacks": (c("parallel.serial_fallbacks", 0)
                                   + c("parallel.group_serial_reruns", 0), "count"),
        "trace.overhead": (overhead, "ratio"),
    }
    return result_json(result, metrics)


def result_json(result, metrics: dict) -> dict:
    for error in result.errors:
        print(f"perfbench FAILED OPERATION: {error}", file=sys.stderr)
    for failure in result.failures:
        print(f"perfbench FAILED CHECK: {failure}", file=sys.stderr)
    failed = result.failed + len(result.failures)
    return {"correct": failed == 0,
            "attempted": result.attempted + len(result.failures), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("admit-tandem", "restart-batch", "analyze-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s samples)")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # this file's directory is already on it

    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root()))
    try:
        if args.setup_only:
            workload = new_workload(args.workload, args.seed, args.seconds, scratch)
            workload.prepare()
            ready = time.perf_counter() - T_START
            workload.close()
            print(f"setup_s {ready!r}")
            return 0
        out = trace(args, scratch) if args.trace else measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch.parent)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
