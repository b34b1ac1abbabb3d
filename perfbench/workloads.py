"""The benchmark's workloads: seeded inputs, a timed phase, output checks.

Each workload is a class with three steps, run in one process:

* ``prepare()`` builds the inputs from the seed and opens what the
  program needs (service, journal, store).  It is part of ``setup_s``.
* ``run()`` executes the fixed, deterministic work in consecutive
  blocks of ``BLOCK`` latency samples, timing each block and each
  operation, with a speed probe between every two blocks.  Nothing
  random or time-dependent decides *what* work is done, so every run
  of one commit on one seed does identical work (see the fingerprint).
* ``check()`` checks the program's outputs after the timed phase.
* ``close()`` releases files; the caller removes the scratch directory.

The amount of work is about ``OPS_PER_S * seconds`` operations, rounded
to whole blocks, with a per-workload constant (see README.md for the
timed phase each gives on a 2-vCPU x86 VM); it never depends on a
measured time.  Block times and latencies are scaled by the probes on
either side of their block to a host that runs the probe in
``PROBE_REF_S``, so that the host's own changes of speed cancel (see
README.md, *Host speed*).
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from repro.analysis.closed_forms import tandem_closed_forms
from repro.analysis.decomposed import DecomposedAnalysis
from repro.analysis.service_curve import ServiceCurveAnalysis
from repro.context import AnalysisContext, MetricsRegistry
from repro.core.integrated import IntegratedAnalysis
from repro.curves.token_bucket import TokenBucket
from repro.admission.requests import ConnectionRequest
from repro.loadgen import Event
from repro.network.flow import Flow
from repro.network.generators import random_feedforward
from repro.network.tandem import CONNECTION0, build_tandem
from repro.network.topology import Network, ServerSpec
from repro.service import DEGRADATION_NORMAL, AdmissionService, recover_service
from repro.store import AnalysisStore

clock = time.perf_counter

#: seconds one :func:`speed_probe` takes on the reference host; time
#: metrics are scaled to a host of that speed
PROBE_REF_S = 0.025


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop (about 25 ms): the host's
    speed at this moment, independent of the program under test."""
    t0 = clock()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    return clock() - t0


def to_reference(seconds: float, probes: tuple[float, ...]) -> float:
    """*seconds* measured between *probes*, scaled to the reference host."""
    return seconds * PROBE_REF_S * len(probes) / sum(probes)


@dataclass
class Block:
    """One fixed slice of the timed phase."""

    #: wall time of the slice
    seconds: float
    #: operations (admission decisions or queries) answered in it
    ops: int
    #: latency samples in seconds: one per decision or query, one per
    #: round of a batch
    latencies: list[float]
    #: speed probes taken right before and right after the slice
    probes: tuple[float, float] = (PROBE_REF_S, PROBE_REF_S)

    @property
    def scale(self) -> float:
        """Factor from this slice's seconds to reference-host seconds."""
        return to_reference(1.0, self.probes)


class BlockClock:
    """Times consecutive blocks and the latency samples inside them, with
    a speed probe between every two blocks."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self._start = 0.0
        self._probe = speed_probe()

    def open(self) -> None:
        self.blocks.append(Block(0.0, 0, []))
        self._start = clock()

    def sample(self, seconds: float, ops: int = 1) -> None:
        block = self.blocks[-1]
        block.latencies.append(seconds)
        block.ops += ops

    def close(self) -> None:
        block = self.blocks[-1]
        block.seconds = clock() - self._start
        before, self._probe = self._probe, speed_probe()
        block.probes = (before, self._probe)


@dataclass
class RunResult:
    """What one timed phase produced."""

    blocks: list[Block]
    #: busy wall time of the timed phase
    busy_s: float
    attempted: int
    #: operations that raised or were answered below the primary's
    #: normal level
    failed: int
    #: operations that raised, one line each
    errors: list[str]
    #: deterministic record of every answer (name, outcome, float.hex bound)
    answers: list[tuple]
    #: workload-specific figures printed as diagnostics
    details: dict = field(default_factory=dict)
    #: failed output checks, one line each
    failures: list[str] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [t for block in self.blocks for t in block.latencies]

    @property
    def ops(self) -> int:
        return sum(block.ops for block in self.blocks)

    @property
    def reference_s(self) -> float:
        """Time of the blocks, scaled to the reference host."""
        return sum(block.seconds * block.scale for block in self.blocks)

    @property
    def reference_latencies(self) -> list[float]:
        return [t * block.scale for block in self.blocks for t in block.latencies]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated *q* quantile (0 < q < 1) of *values*."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class _Workload:
    name = ""
    #: operations per second of --seconds (calibration constant)
    OPS_PER_S = 1.0
    #: latency samples per block
    BLOCK = 10
    #: operations per latency sample (admits per round of a batch)
    OPS_PER_SAMPLE = 1
    #: traced layers that must record calls on this workload
    WORKING_LAYERS: tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: int, scratch: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.ctx = AnalysisContext(metrics=MetricsRegistry())

    @property
    def n_ops(self) -> int:
        """Operations of the timed phase: whole blocks, at least one."""
        per_block = self.BLOCK * self.OPS_PER_SAMPLE
        return per_block * max(1, round(self.OPS_PER_S * self.seconds / per_block))

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self) -> RunResult:
        raise NotImplementedError

    def check(self, result: RunResult) -> list[str]:
        """Output checks after the timed phase; one line per failure."""
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# the admission stream
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Churn:
    """A balanced admit/release stream over tandems of ``hops`` servers.

    Request ``i`` goes to tandem ``i % tandems``.  Its path is one of the
    ``hops * (hops + 1) / 2`` contiguous sub-paths, dealt from a deck
    the seed shuffles, so every window of that many requests holds each
    sub-path once.  Rate and burst are the nominal values times a seeded
    factor in ``1 +- jitter``.  Connection ``i`` is released right after
    request ``i + hold`` (a skip when it was rejected).  Balancing the
    paths and fixing the holding time keeps the cost of a stream nearly
    the same from seed to seed, while the order, the parameters and so
    every decision still come from the seed.
    """

    hops: int
    deadline: float
    sigma: float
    rho: float
    jitter: float
    hold: int
    tandems: int = 1

    def events(self, seed: int, n_admits: int) -> list[Event]:
        rng = Random(seed)
        subpaths = [(a, b) for a in range(1, self.hops + 1)
                    for b in range(a, self.hops + 1)]
        deck: list[tuple[int, int]] = []
        out: list[Event] = []
        for i in range(n_admits):
            if not deck:
                deck = subpaths[:]
                rng.shuffle(deck)
            a, b = deck.pop()
            base = (i % self.tandems) * self.hops
            sigma = self.sigma * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))
            rho = self.rho * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))
            name = f"c{i:06d}"
            request = ConnectionRequest(name, TokenBucket(sigma, rho, peak=1.0),
                                        tuple(range(base + a, base + b + 1)), self.deadline)
            out.append(Event(float(i), "admit", name, request))
            if i >= self.hold:
                out.append(Event(float(i), "release", f"c{i - self.hold:06d}"))
        return out


def admit_blocks(events: list[Event], admits: int) -> list[list[Event]]:
    """Split *events* into blocks of *admits* admits and the releases after them."""
    blocks: list[list[Event]] = []
    count = 0
    for event in events:
        if event.op == "admit":
            if count % admits == 0:
                blocks.append([])
            count += 1
        blocks[-1].append(event)
    return blocks


# ----------------------------------------------------------------------
# admit-tandem
# ----------------------------------------------------------------------

class AdmitTandem(_Workload):
    """Integrated-analysis admission over the paper's tandem.

    The Figure-3 tandem (4 switches, interior load 0.4) is the standing
    load.  A seeded, balanced churn stream of token-bucket requests on
    sub-paths is admitted and released back to back by one caller
    through a durable service (disk journal, incremental engine).
    """

    name = "admit-tandem"
    OPS_PER_S = 4.0
    HOPS = 4
    UTILIZATION = 0.4
    STREAM = Churn(hops=HOPS, deadline=16.0, sigma=1.0, rho=0.03, jitter=0.5, hold=6)
    WORKING_LAYERS = (
        "curves.construct", "curves.eval", "curves.pseudo_inverse", "network.flows_at",
        "network.edit", "block_step", "theta.solve", "theta.objective", "theorem1",
        "analyzer.integrated", "engine.analyze", "admission.test", "admission.commit",
        "journal.append")

    def prepare(self) -> None:
        self.journal_dir = self.scratch / "journal"
        self.events = self.STREAM.events(self.seed, self.n_ops)
        self.event_blocks = admit_blocks(self.events, self.BLOCK)
        self.service = AdmissionService(
            build_tandem(self.HOPS, self.UTILIZATION), IntegratedAnalysis(),
            journal_dir=self.journal_dir, ctx=self.ctx)
        # the standing load's analysis is the service's warm state
        self.service.controller.engine.analyze(self.service.network, ctx=self.ctx)

    def run(self) -> RunResult:
        service = self.service
        timer = BlockClock()
        answers: list[tuple] = []
        errors: list[str] = []
        failed = admitted = 0
        start = clock()
        for events in self.event_blocks:
            timer.open()
            for event in events:
                t0 = clock()
                try:
                    if event.op == "admit":
                        decision = service.admit(event.request)
                        timer.sample(clock() - t0)
                        admitted += decision.admitted
                        if decision.degradation != DEGRADATION_NORMAL:
                            failed += 1
                        answers.append((event.name, decision.admitted,
                                        float(decision.bound).hex(), decision.degradation))
                    else:
                        seq = service.release(event.name, missing_ok=True)
                        answers.append((event.name,
                                        "released" if seq is not None else "skipped"))
                except Exception as exc:  # one failed operation; the stream goes on
                    failed += 1
                    errors.append(f"{event.op} {event.name}: {type(exc).__name__}: {exc}")
            timer.close()
        busy = clock() - start
        decisions = sum(block.ops for block in timer.blocks)
        return RunResult(
            blocks=timer.blocks, busy_s=busy, attempted=len(self.events),
            failed=failed, errors=errors, answers=answers,
            details={"decisions": decisions, "admitted": admitted,
                     "admitted_fraction": admitted / max(1, decisions),
                     "population": len(service.admitted)})

    def check(self, result: RunResult) -> list[str]:
        """Engine bounds of the final network equal a cold analysis, bit for bit,
        and every admitted connection meets its deadline."""
        network = self.service.network
        engine = self.service.controller.engine.analyze(network)
        cold = IntegratedAnalysis().analyze(network)
        problems = []
        for flow in network.flows.values():
            got, want = engine.delay_of(flow.name), cold.delay_of(flow.name)
            if float(got).hex() != float(want).hex():
                problems.append(f"engine bound of {flow.name} is {got!r}, cold is {want!r}")
            if flow.name in self.service.admitted and not got <= flow.deadline:
                problems.append(f"admitted {flow.name} bound {got!r} > deadline {flow.deadline}")
        return problems

    def close(self) -> None:
        self.service.close()


# ----------------------------------------------------------------------
# restart-batch
# ----------------------------------------------------------------------

class RestartBatch(_Workload):
    """Decomposed-analysis batch admission across a crash and a restart.

    Many disjoint 4-hop tandems; every admit goes through
    ``admit_batch(workers=2)`` in rounds of in-flight requests, with the
    stream's releases between rounds.  Mid-stream the service is
    abandoned unclosed (what SIGKILL leaves) and rebuilt with
    ``recover_service(verify=True, store=...)`` from a fresh store
    handle, and the stream continues on the recovered service.
    """

    name = "restart-batch"
    #: steady-state admits per second of --seconds
    OPS_PER_S = 24.0
    TANDEMS = 16
    HOPS = 4
    #: in-flight requests per round; a round is one latency sample
    CLIENTS = 6
    OPS_PER_SAMPLE = CLIENTS
    #: the first ``hold`` admits fill the network (15 connections per
    #: tandem) before the timed blocks; after that every admit is
    #: followed by a release, so each block does like work
    STREAM = Churn(hops=HOPS, deadline=60.0, sigma=1.0, rho=0.02, jitter=0.5, hold=240,
                   tandems=TANDEMS)
    #: journal records between snapshots, before and after the crash;
    #: the crash falls about 330 records after the last snapshot, so
    #: recovery replays and re-verifies that many
    SNAPSHOT_EVERY = 512
    WORKING_LAYERS = (
        "curves.construct", "curves.eval", "network.flows_at", "network.edit",
        "server_step", "analyzer.decomposed", "engine.analyze", "store.get", "store.put",
        "admission.commit", "batch.plan", "journal.append", "journal.snapshot",
        "recovery.replay", "recovery.verify")

    def prepare(self) -> None:
        self.workers = max(1, min(2, os.cpu_count() or 1))
        self.journal_dir = self.scratch / "journal"
        self.store_dir = self.scratch / "store"
        servers = [ServerSpec(k) for k in range(1, self.TANDEMS * self.HOPS + 1)]
        rounds = admit_blocks(self.STREAM.events(self.seed, self.STREAM.hold + self.n_ops),
                              self.CLIENTS)
        fill = self.STREAM.hold // self.CLIENTS
        self.fill_rounds = rounds[:fill]
        self.round_blocks = chunks(rounds[fill:], self.BLOCK)
        self.store = AnalysisStore(self.store_dir)
        self.service = AdmissionService(
            Network(servers, []), DecomposedAnalysis(), journal_dir=self.journal_dir,
            store=self.store, snapshot_every=self.SNAPSHOT_EVERY, ctx=self.ctx)

    def run(self) -> RunResult:
        self.answers: list[tuple] = []
        self.errors: list[str] = []
        self.failed = self.decided = self.admitted = self.attempted = 0
        self.committed: set[str] = set()
        failures: list[str] = []
        crash_at = len(self.round_blocks) // 2
        restart_s = math.nan
        start = clock()
        for events in self.fill_rounds:
            self._round(events, None)
        fill_s = clock() - start
        start = clock()
        timer = BlockClock()
        for index, rounds in enumerate(self.round_blocks):
            timer.open()
            if index == crash_at:
                t0 = clock()
                try:
                    self._crash_and_recover()
                except Exception as exc:
                    failures.append(f"restart: {type(exc).__name__}: {exc}")
                    timer.close()
                    break
                restart_s = clock() - t0
                self.attempted += 1
                lost = self.committed - set(self.service.admitted)
                if lost:
                    failures.append(f"restart lost acknowledged admissions {sorted(lost)}")
            for events in rounds:
                self._round(events, timer)
            timer.close()
        busy = clock() - start
        return RunResult(
            blocks=timer.blocks, busy_s=busy, attempted=self.attempted,
            failed=self.failed, errors=self.errors, failures=failures,
            answers=self.answers,
            details={"decisions": self.decided, "fill_s": fill_s, "admitted": self.admitted,
                     "admitted_fraction": self.admitted / max(1, self.decided),
                     "restart_s": restart_s, "journal_records": self._journal_records,
                     "population": len(self.service.admitted)})

    def _round(self, events: list[Event], timer: BlockClock | None) -> None:
        """One batch of admits, then the releases scheduled while it filled."""
        admits = [e for e in events if e.op == "admit"]
        self.attempted += len(events)
        t0 = clock()
        try:
            decisions = self.service.admit_batch(
                [e.request for e in admits], workers=self.workers)
        except Exception as exc:
            self.failed += len(admits)
            self.errors.append(f"round of {admits[0].name}: {type(exc).__name__}: {exc}")
            return
        if timer is not None:
            timer.sample(clock() - t0, len(admits))
        self.decided += len(decisions)
        for event, decision in zip(admits, decisions):
            self.admitted += decision.admitted
            if decision.admitted:
                self.committed.add(event.name)
            if decision.degradation != DEGRADATION_NORMAL:
                self.failed += 1
            self.answers.append((event.name, decision.admitted,
                                 float(decision.bound).hex(), decision.degradation))
        for event in events:
            if event.op != "release":
                continue
            try:
                seq = self.service.release(event.name, missing_ok=True)
            except Exception as exc:
                self.failed += 1
                self.errors.append(f"release {event.name}: {type(exc).__name__}: {exc}")
                continue
            self.committed.discard(event.name)
            self.answers.append((event.name, "released" if seq is not None else "skipped"))

    def _crash_and_recover(self) -> None:
        # SIGKILL semantics: the live service and its store handle are
        # abandoned without close(), so no final snapshot or flush runs;
        # holding them keeps the collector from flushing their buffers
        self._journal_records = self.service.journal.last_seq
        self._abandoned = (self.service, self.store)
        self.store = AnalysisStore(self.store_dir)
        self.service = recover_service(self.journal_dir, verify=True, store=self.store,
                                       snapshot_every=self.SNAPSHOT_EVERY, ctx=self.ctx)

    def close(self) -> None:
        self.service.close()
        self.store.close()
        self._abandoned = None


# ----------------------------------------------------------------------
# analyze-cold
# ----------------------------------------------------------------------

class AnalyzeCold(_Workload):
    """Each analyzer cold on the paper tandem and a random network.

    One operation is a cold planning query: a fresh analyzer instance
    (no engine, store or journal) analyzes both networks.  The query
    mix per round is two decomposed, two service-curve and one
    integrated query.  A block is two rounds, so the 90th percentile of
    a block's ten queries falls between its two integrated queries.
    """

    name = "analyze-cold"
    #: queries per second of --seconds (rounded to whole 10-query blocks)
    OPS_PER_S = 4.1
    MIX = (("decomposed", DecomposedAnalysis), ("service_curve", ServiceCurveAnalysis),
           ("decomposed", DecomposedAnalysis), ("service_curve", ServiceCurveAnalysis),
           ("integrated", IntegratedAnalysis))
    TANDEM = (6, 0.6)
    #: the reference random network's shape and topology seed; the run
    #: seed perturbs every burst within +-2 %
    RANDOM_SHAPE = {"n_servers": 6, "n_flows": 16}
    TOPOLOGY_SEED = 7
    BURST_JITTER = 0.02
    WORKING_LAYERS = (
        "curves.construct", "curves.eval", "curves.pseudo_inverse", "curves.add",
        "curves.convolve", "network.flows_at", "server_step", "block_step", "theta.solve",
        "theta.objective", "theorem1", "analyzer.decomposed", "analyzer.service_curve",
        "analyzer.integrated")

    def prepare(self) -> None:
        self.tandem = build_tandem(*self.TANDEM)
        self.random = _perturbed(random_feedforward(self.TOPOLOGY_SEED, **self.RANDOM_SHAPE),
                                 Random(self.seed), self.BURST_JITTER)
        self.query_blocks = chunks(list(self.MIX) * (self.n_ops // len(self.MIX)), self.BLOCK)

    def run(self) -> RunResult:
        timer = BlockClock()
        errors: list[str] = []
        failures: list[str] = []
        bounds: dict[str, dict[str, str]] = {}
        per_analyzer: dict[str, list[float]] = {}
        failed = 0
        attempted = 0
        start = clock()
        for queries in self.query_blocks:
            timer.open()
            for name, cls in queries:
                attempted += 1
                t0 = clock()
                try:
                    reports = [cls().analyze(net, ctx=self.ctx)
                               for net in (self.tandem, self.random)]
                except Exception as exc:
                    failed += 1
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                took = clock() - t0
                timer.sample(took)
                per_analyzer.setdefault(name, []).append(took)
                got = {f"{i}:{flow}": float(rep.delay_of(flow)).hex()
                       for i, (rep, net) in enumerate(zip(reports, (self.tandem, self.random)))
                       for flow in net.flows}
                if bounds.setdefault(name, got) != got:
                    failures.append(f"{name}: repeated cold analysis changed a bound")
            timer.close()
        busy = clock() - start
        self.bounds = bounds
        sums = {name: math.fsum(float.fromhex(h) for h in got.values())
                for name, got in bounds.items()}
        return RunResult(
            blocks=timer.blocks, busy_s=busy, attempted=attempted,
            failed=failed, errors=errors, failures=failures,
            answers=sorted((name, key, h) for name, got in bounds.items()
                           for key, h in got.items()),
            details={f"bound_sum.{name}": value for name, value in sorted(sums.items())}
            | {f"analyze_s.{name}": statistics.median(times)
               for name, times in sorted(per_analyzer.items())})

    def check(self, result: RunResult) -> list[str]:
        """Connection 0 on the tandem matches the paper's closed forms."""
        bounds = self.bounds
        if set(bounds) != {"decomposed", "service_curve", "integrated"}:
            return ["an analyzer produced no bounds"]
        conn0 = {name: float.fromhex(got[f"0:{CONNECTION0}"]) for name, got in bounds.items()}
        forms = tandem_closed_forms(*self.TANDEM)
        problems = []
        for name, want in (("decomposed", forms.decomposed),
                           ("service_curve", forms.service_curve)):
            if not math.isclose(conn0[name], want, rel_tol=1e-9):
                problems.append(f"{name} Connection 0 bound {conn0[name]!r} != closed form {want!r}")
        if not conn0["integrated"] <= conn0["decomposed"]:
            problems.append(f"integrated Connection 0 bound {conn0['integrated']!r} "
                            f"exceeds decomposed {conn0['decomposed']!r}")
        return problems


def _perturbed(network: Network, rng: Random, jitter: float) -> Network:
    """*network* with every flow's burst scaled by a factor in 1 +- jitter."""
    flows = [Flow(f.name, TokenBucket(f.bucket.sigma * (1.0 + jitter * rng.uniform(-1.0, 1.0)),
                                      f.bucket.rho, f.bucket.peak),
                  f.path, f.deadline)
             for f in network.flows.values()]
    return Network(list(network.servers.values()), flows)


WORKLOADS = {cls.name: cls for cls in (AdmitTandem, RestartBatch, AnalyzeCold)}

