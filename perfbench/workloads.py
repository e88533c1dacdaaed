"""The three benchmark workloads.

Each workload has ``setup(seed, tracer)``, which builds the inputs and
the program objects, and ``run(state, tracer)``, which runs the timed
phases and then checks the outputs.  ``tracer`` is ``None`` for an
untraced rep; otherwise the workload wraps its layers' entry points
before calling them.  Only generated inputs reach the program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import checks
import gen
from tracer import Patcher, Tracer, percentile

clock = time.perf_counter


@dataclass
class Rep:
    """What one rep of a workload did and measured."""

    units: int  # work units done in the throughput phase
    phase_s: float  # host time of the throughput phase
    timed_s: float  # host time of all timed phases
    attempted: int
    #: output checks failed: a result the program got wrong
    failed: int
    digest: str
    #: the paper's share bands missed; counted in ``failed`` of the JSON
    #: line, but not in ``correct``
    missed: int = 0
    #: simulated or counted results; identical on every rep of a seed
    sim: dict[str, float] = field(default_factory=dict)
    #: host-time figures beside the throughput, for the printed report
    info: dict[str, float] = field(default_factory=dict)


# -- endsystem_bursty ----------------------------------------------------


class EndsystemBursty:
    """Reference-engine endsystem router under Figure 9 style bursts."""

    name = "endsystem_bursty"
    unit = "frames"
    imports = ("repro.endsystem.host",)

    def setup(self, seed: int, tracer: Tracer | None):
        from repro.endsystem.host import EndsystemConfig, EndsystemRouter
        from repro.traffic.specs import EndsystemStreamSpec

        arrivals = gen.endsystem_arrivals(seed)
        specs = [
            EndsystemStreamSpec(
                sid=sid, share=float(share), frame_bytes=gen.FRAME_BYTES,
                arrivals_us=arr,
            )
            for sid, (share, arr) in enumerate(zip(gen.SHARES, arrivals))
        ]
        departures: list[tuple[int, int, float, float]] = []
        router = EndsystemRouter(
            specs,
            EndsystemConfig(engine="reference"),
            on_departure=lambda sid, frame, t: departures.append(
                (sid, frame.seq, frame.arrival_us, t)
            ),
        )
        if tracer is not None:
            tracer.wrap(router.sim, "run", "sim.run")
            tracer.wrap(router.streaming, "refill_all", "endsystem.refill_all")
            tracer.wrap(router.te, "transmit", "endsystem.transmit")
            tracer.wrap(router.qm, "produce", "endsystem.produce")
            tracer.wrap(
                router.scheduler, "decision_cycle", "core.scheduler.decision_cycle"
            )
        return arrivals, router, departures

    def run(self, state, tracer: Tracer | None) -> Rep:
        arrivals, router, departures = state
        t0 = clock()
        result = router.run()
        phase_s = clock() - t0

        dep = np.array(departures, dtype=np.float64).reshape(-1, 4)
        sids = dep[:, 0].astype(np.int64)
        offered = [len(a) for a in arrivals]
        failed = checks.frames_exactly_once(offered, sids, dep[:, 1].astype(np.int64))
        served = checks.backlogged_counts(arrivals, sids, dep[:, 3])
        decisions = router.sim.events_run - sum(offered)
        delays = dep[:, 3] - dep[:, 2]
        return Rep(
            units=result.frames_sent,
            phase_s=phase_s,
            timed_s=phase_s,
            attempted=sum(offered) + len(gen.SHARES),
            failed=failed,
            missed=checks.band_failures(served, gen.SHARES),
            digest=checks.digest(dep[:, [0, 1, 3]]),
            sim={
                "sim_cycles_per_packet": decisions
                * router.scheduler.cycles_per_decision
                / max(1, result.frames_sent),
                "sim_delay_p50_us": percentile(delays, 0.5) or 0.0,
                "sim_delay_p99_us": percentile(delays, 0.99) or 0.0,
                "share_error": checks.share_error(served, gen.SHARES),
                "sim.events": router.sim.events_run,
                "endsystem.sram_switches": router.sram.total_switches,
                "endsystem.pci_words": router.pci.total_words,
                "core.scheduler.idle_ratio": (decisions - result.frames_sent)
                / max(1, decisions),
            },
            info={"frames_per_s": result.frames_sent / phase_s},
        )


# -- diff_campaign -------------------------------------------------------


class DiffCampaign:
    """Tensor-engine differential campaign over a wide seed set."""

    name = "diff_campaign"
    unit = "scenario-cycles"
    imports = ("repro.core.differential", "repro.core.tensor_engine")
    #: Decision cycles per scenario.  Bucket sharing depends only on the
    #: seeds, so cutting cycles keeps the workload's shape.
    cycles = 20
    #: Two seeds per stratum: a bucket shape (slot count, routing, block
    #: mode, sort schedule, wrap) and whether at most half of the slots
    #: hold streams.  Every workload seed thus runs the same 96 buckets of
    #: four rows each, with scenarios of the same sizes; which scenarios
    #: they are still moves the cost by a few percent.
    strata = [
        (n, routing, block, schedule, wrap, half)
        for n in (2, 4, 8, 16, 32, 64)
        for routing in ("ba", "wr")
        for block in ("max_first", "min_first")
        for schedule in ("paper", "bitonic")
        for wrap in (False, True)
        for half in (0, 1)
    ]

    def setup(self, seed: int, tracer: Tracer | None):
        from repro.core.differential import generate_scenario

        def stratum(s: int) -> tuple:
            sc = generate_scenario(s)
            half = 2 * (len(sc.streams) - 1) // sc.n_slots
            return (
                sc.n_slots, sc.routing.value, sc.block_mode.value,
                sc.schedule, sc.wrap, half,
            )

        return gen.campaign_seeds(seed, stratum, self.strata, 2 * len(self.strata))

    def run(self, seeds, tracer: Tracer | None) -> Rep:
        from repro.core import differential
        from repro.core.scheduler import ShareStreamsScheduler
        from repro.core.tensor_engine import CampaignEngine

        captured: list = []  # (scenarios, traces) per bucket
        capture = Patcher()

        def make_capture(fn):
            def run_bucket(scenarios, *args, **kwargs):
                traces = fn(scenarios, *args, **kwargs)
                captured.append((scenarios, traces))
                return traces

            return run_bucket

        if tracer is not None:
            for attr, name in (
                ("generate_scenario", "core.differential.generate_scenario"),
                ("run_bucket", "core.differential.run_bucket"),
                ("run_engine", "core.differential.run_engine"),
                ("_compare_traces", "core.differential.compare"),
            ):
                tracer.wrap(differential, attr, name)
            tracer.wrap(
                ShareStreamsScheduler, "decision_cycle",
                "core.scheduler.decision_cycle",
            )
            tracer.wrap(
                CampaignEngine, "decision_cycle_all",
                "core.tensor_engine.decision_cycle_all",
            )
            tracer.wrap(CampaignEngine, "enqueue", "core.tensor_engine.enqueue")
        # Patched after the tracer so that it is undone first.
        capture.patch(differential, "run_bucket", make_capture)
        try:
            t0 = clock()
            result = differential.campaign(
                seeds, n_cycles=self.cycles, engine="tensor", workers=1,
                cache_dir=None,
            )
            phase_s = clock() - t0
        finally:
            capture.restore()

        by_seed = {}
        for scenarios, traces in captured:
            for scenario, trace in zip(scenarios, traces):
                by_seed.setdefault(scenario.seed, []).append(trace)
        failed = checks.campaign_failures(
            result.passed, len(result.divergences), len(result.failures)
        )
        # every seed must have been run through the tensor engine once
        failed += sum(len(by_seed.get(s, ())) != 1 for s in seeds)
        hw = idle = 0
        services = []
        for s in seeds:
            for trace in by_seed.get(s, ())[:1]:
                for record in trace.records:
                    hw += record.hw_cycles
                    idle += record.circulated is None
                    services.extend((s, record.now, *p) for p in record.serviced)
        telemetry = result.telemetry or {}

        def counter(name: str) -> float:
            return telemetry.get(name, {}).get("samples", {}).get(name, 0.0)

        rows = sum(len(scenarios) for scenarios, _ in captured)
        return Rep(
            units=len(seeds) * self.cycles,
            phase_s=phase_s,
            timed_s=phase_s,
            attempted=len(seeds),
            failed=failed,
            digest=checks.digest(np.array(services, dtype=np.int64).reshape(-1, 6)),
            sim={
                "sim_cycles_per_packet": hw / max(1, len(services)),
                "core.differential.rows_per_bucket": rows / max(1, len(captured)),
                "core.scheduler.idle_ratio": idle / (len(seeds) * self.cycles),
                "core.tensor_engine.fast_forward_ratio": counter(
                    "differential_fast_forwarded_cycles_total"
                )
                / max(1, len(captured) * self.cycles),
            },
            info={"scenario_cycles_per_s": len(seeds) * self.cycles / phase_s},
        )


# -- aggregation_1m ------------------------------------------------------


class Aggregation1M:
    """One million weighted streams on a 1024-aggregate batch tier."""

    name = "aggregation_1m"
    unit = "packets"
    imports = ("repro.aggregation", "repro.core.batch_engine")
    n_aggregates = 1024
    n_streams = 1_000_000
    churn_ops = 100_000
    #: decision cycles of the backlogged service window
    window = 16_384

    def setup(self, seed: int, tracer: Tracer | None):
        from repro.aggregation import AggregationTier
        from repro.aggregation.tier import _TierCore

        pop = gen.population(
            seed, self.n_streams, churn_ops=self.churn_ops, window=self.window
        )
        tier = AggregationTier(
            self.n_aggregates, engine="batch", strict=False, discipline="pifo:sfq"
        )
        if tracer is not None:
            for attr in ("join", "leave", "submit", "decision_cycle"):
                tracer.wrap(tier, attr, f"aggregation.{attr}")
            # _TierCore has __slots__, so its methods are wrapped on the class.
            tracer.wrap(_TierCore, "submit", "disciplines.pifo.submit")
            tracer.wrap(_TierCore, "service", "disciplines.pifo.service")
            tracer.wrap(tier.scheduler, "decision_cycle", "core.batch_engine.decision_cycle")
            tracer.wrap(tier.scheduler, "enqueue", "core.batch_engine.enqueue")
        join = tier.join
        for sid, w in zip(pop.sids.tolist(), pop.weights.tolist()):
            join(sid, weight=w)
        weights = [s.weight for s in tier.stats()]
        senders = pop.senders.tolist()
        aggregates = [tier.bucket(sid) for sid in senders]
        packets = gen.plan_packets(seed, pop.senders, aggregates, weights, self.window)
        return pop, tier, packets

    def run(self, state, tracer: Tracer | None) -> Rep:
        pop, tier, packets = state
        join, leave, submit, cycle = tier.join, tier.leave, tier.submit, tier.decision_cycle
        t0 = clock()
        for lsid, lw, jsid, jw in zip(
            pop.churn_leave.tolist(), pop.churn_leave_w.tolist(),
            pop.churn_join.tolist(), pop.churn_join_w.tolist(),
        ):
            leave(lsid, weight=lw)
            join(jsid, weight=jw)
        churn_s = clock() - t0

        t0 = clock()
        for deadline, sid in enumerate(packets.tolist()):
            submit(sid, deadline)
        submit_s = clock() - t0
        start = tier.stats()
        first = tier.now
        t0 = clock()
        for lsid, lw, jsid, jw in zip(
            pop.window_leave.tolist(), pop.window_leave_w.tolist(),
            pop.window_join.tolist(), pop.window_join_w.tolist(),
        ):
            leave(lsid, weight=lw)
            join(jsid, weight=jw)
            cycle()
        window_s = clock() - t0
        end = tier.stats()
        t0 = clock()
        drained = tier.drain()
        drain_s = clock() - t0

        services = np.array(tier.services, dtype=np.int64).reshape(-1, 4)
        in_window = services[(services[:, 0] >= first) & (services[:, 0] < first + self.window)]
        served = np.bincount(in_window[:, 2], minlength=self.n_aggregates)
        # Churn moves the weights a little during the window: expect
        # the mean of the shares at its start and at its end.
        w_start = np.array([s.weight for s in start], dtype=np.float64)
        w_end = np.array([s.weight for s in end], dtype=np.float64)
        expected = (w_start / w_start.sum() + w_end / w_end.sum()) / 2
        err = checks.share_error(served, expected)
        failed = sum(s.backlog == 0 for s in end)
        failed += checks.packets_exactly_once(packets, services[:, 1])
        failed += tier.outstanding != 0
        decisions = self.window + drained
        n = len(packets)
        return Rep(
            units=n,
            phase_s=submit_s + window_s + drain_s,
            timed_s=churn_s + submit_s + window_s + drain_s,
            attempted=n + self.n_aggregates + 2,
            failed=int(failed),
            missed=int(err > checks.FIG8_TOLERANCE),
            digest=checks.digest(services),
            sim={
                "sim_cycles_per_packet": decisions
                * tier.scheduler.cycles_per_decision / n,
                "share_error": err,
                "aggregation.packets_per_decision": n / decisions,
                "aggregation.backlog_max": max(s.backlog for s in start),
            },
            info={
                "packets_per_s": n / (submit_s + window_s + drain_s),
                "churn_ops_per_s": 2 * self.churn_ops / churn_s,
            },
        )


WORKLOADS = {w.name: w for w in (EndsystemBursty(), DiffCampaign(), Aggregation1M())}
