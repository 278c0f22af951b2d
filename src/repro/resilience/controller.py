"""The resilient training loop: inject -> detect -> replan -> resume.

:class:`ResilientTrainer` drives an :class:`ExecutionEngine` whose cost
model a :class:`FaultInjector` is mutating, watches every iteration
with a :class:`FailureDetector`, and on detection either *replans*
(recovery onto the surviving devices through a :class:`Replanner`) or
*rides it out* (keeps the original plan at degraded speed — the
baseline the fault-sweep experiment compares against).  A crash cannot
be ridden out: the run stalls.

The third policy, ``elastic``, additionally reacts to *capacity*
events (``join`` / ``server_join`` / ``preempt`` / ``reclaim``):

- on **arrival**, an :class:`~repro.elastic.ElasticPolicy` prices the
  replan — expected savings from the enlarged fleet's makespan lower
  bound versus restart overhead + estimated search cost — and only
  replans when it pays; the search runs concurrently with training
  (the old plan keeps stepping), so a scale-up costs only the restart
  overhead and is booked as ``action="scale_up"``, keeping MTTR a pure
  failure-recovery statistic;
- on a **preempt notice**, it drains: replan *before* the deadline onto
  the fleet minus every noticed device, so the synthesized crash hits a
  device nothing runs on — zero lost work, downtime = restart overhead.

``replan`` adopts arrivals unconditionally and ignores notices (it
recovers from the eventual crash like any other failure); ``ride``
ignores capacity events entirely.

Recovery accounting follows the usual MTTR / lost-work decomposition:

- **lost work** — simulated time of iterations whose results were
  thrown away (the iteration in flight when the fault struck, replayed
  after recovery; mirrors re-running from the last checkpoint);
- **downtime (MTTR)** — detection lag (the failed iteration had to run
  before the fault was noticed: one healthy-mean iteration) plus the
  replanning wall-clock (strategy search is real CPU work the cluster
  sits idle through) plus a fixed
  :data:`~repro.elastic.policy.RESTART_OVERHEAD` for process respawn
  and weight re-shard.

Both are exported through the telemetry registry
(``resilience_mttr_seconds``, ``resilience_lost_work_seconds_total``)
and reported on the :class:`ResilienceReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import telemetry
from ..errors import DeviceLostError, OutOfMemoryError, ReproError
from ..plan import ExecutionPlan
from ..runtime.execution_engine import ExecutionEngine
from ..runtime.trainer_loop import DetectionEvent, FailureDetector
from ..telemetry.context import request_scope
from ..telemetry.flight import FlightRecorder, default_recorder
from ..telemetry.journal import new_request_id
from ..elastic import policy as elastic
from .faults import FaultEvent, FaultInjector, FaultKind
from .replan import RecoveryPlan, Replanner

POLICIES = ("replan", "ride", "elastic")

_ARRIVAL_KINDS = (FaultKind.DEVICE_JOIN, FaultKind.SERVER_JOIN,
                  FaultKind.RECLAIM)

#: hard failures one iteration may recover from before the run gives up
MAX_RECOVERIES = 8


@dataclass
class RecoveryRecord:
    """One detected fault (or capacity event) and the controller's move."""

    iteration: int
    cause: str                   # e.g. "device_lost:gpu3"
    action: str                  # "replan" | "ride" | "stall" | "scale_up"
    downtime_seconds: float = 0.0
    lost_work_seconds: float = 0.0
    search_seconds: float = 0.0
    plan_cache_hits: int = 0
    devices_after: int = 0
    trigger: str = "failure"     # "failure" | "arrival" | "preempt_notice"


@dataclass
class ResilienceReport:
    """What a resilient run hands back."""

    steps: int
    policy: str
    iteration_times: List[float] = field(default_factory=list)
    faults: List[FaultEvent] = field(default_factory=list)
    detections: List[DetectionEvent] = field(default_factory=list)
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    stalled: bool = False
    completed_steps: int = 0

    @property
    def total_downtime(self) -> float:
        return sum(r.downtime_seconds for r in self.recoveries)

    @property
    def lost_work(self) -> float:
        return sum(r.lost_work_seconds for r in self.recoveries)

    @property
    def mttr(self) -> float:
        """Mean time to recovery over the run's replans (NaN if none)."""
        repaired = [r.downtime_seconds for r in self.recoveries
                    if r.action == "replan"]
        if not repaired:
            return float("nan")
        return float(np.mean(repaired))

    @property
    def mean_iteration_time(self) -> float:
        if not self.iteration_times:
            return float("nan")
        return float(np.mean(self.iteration_times))

    @property
    def total_seconds(self) -> float:
        """Training makespan: iteration time + downtime + lost work."""
        if self.stalled:
            return float("inf")
        return (float(np.sum(self.iteration_times)) + self.total_downtime
                + self.lost_work)

    def summary(self) -> str:
        lines = [
            f"resilient run ({self.policy}): "
            f"{self.completed_steps}/{self.steps} steps"
            + (" [STALLED]" if self.stalled else ""),
            f"  faults injected : "
            f"{', '.join(e.label for e in self.faults) or '(none)'}",
            "  detections      : " + (", ".join(
                f"{d.kind}:{d.resource}" for d in self.detections)
                or "(none)"),
        ]
        for r in self.recoveries:
            lines.append(
                f"  recovery @{r.iteration}: {r.cause} -> {r.action} "
                f"(downtime {r.downtime_seconds:.3f}s, "
                f"lost work {r.lost_work_seconds:.3f}s, "
                f"{r.devices_after} devices)")
        if self.iteration_times:
            lines.append(
                f"  mean iteration  : {self.mean_iteration_time:.4f} s")
        if not self.stalled:
            lines.append(
                f"  total time      : {self.total_seconds:.3f} s "
                f"(downtime {self.total_downtime:.3f} s, "
                f"lost work {self.lost_work:.3f} s)")
        return "\n".join(lines)


class ResilientTrainer:
    """Runs training iterations that survive a changing cluster.

    A replan after a detected failure, on a preempt notice or onto
    arrived capacity takes one path: :meth:`_replan` searches and
    :meth:`_adopt` switches, so every adopted replan's episode journals
    ``replan_started -> replan_completed -> resumed``.
    """

    def __init__(self, deployment: ExecutionPlan, injector: FaultInjector, *,
                 engine: Optional[ExecutionEngine] = None,
                 replanner: Optional[Replanner] = None,
                 policy: str = "replan"):
        if policy not in POLICIES:
            raise ReproError(
                f"unknown policy {policy!r}; expected one of {POLICIES}")
        if policy != "ride" and replanner is None:
            raise ReproError(f"policy {policy!r} needs a replanner")
        self.deployment = deployment
        self.injector = injector
        self.engine = engine if engine is not None else ExecutionEngine(
            deployment.cluster, fault_injector=injector)
        if self.engine.fault_injector is None:
            self.engine.fault_injector = injector
            injector.bind(self.engine)
        self.replanner = replanner
        self.detector = FailureDetector()
        self.policy = policy
        self.recorder: FlightRecorder = default_recorder()
        self.elastic_policy = elastic.ElasticPolicy()
        self.episode_id = ""         # assigned per run()
        self._healthy_mean: Optional[float] = None

    # ---------------------------------------------------------------- #
    def run(self, steps: int) -> ResilienceReport:
        if steps <= 0:
            raise ReproError(f"steps must be positive, got {steps}")
        report = ResilienceReport(steps=steps, policy=self.policy)
        # each run is one correlated resilience episode: the detector's
        # fault_detected events, every replan's service request (linked
        # through parent_id) and the resume all land in one flight record
        self.episode_id = new_request_id("ep")
        self.recorder.emit(self.episode_id, "episode_started",
                           policy=self.policy, steps=steps,
                           label="resilience",
                           graph=self.deployment.graph.name)
        with request_scope(self.episode_id, self.recorder):
            with telemetry.span("resilience.run", steps=steps,
                                policy=self.policy):
                for i in range(steps):
                    fired = self.injector.advance(i)
                    report.faults.extend(fired)
                    capacity = [e for e in fired if e.is_capacity]
                    if capacity:
                        self._handle_capacity(i, capacity, steps, report)
                    if not self._step(i, report):
                        report.stalled = True
                        break
                    report.completed_steps += 1
        if report.stalled:
            self.recorder.emit(self.episode_id, "failed",
                               error="stalled",
                               completed_steps=report.completed_steps)
        else:
            self.recorder.emit(self.episode_id, "completed",
                               seconds=report.total_seconds,
                               completed_steps=report.completed_steps)
        self._export(report)
        return report

    # ---------------------------------------------------------------- #
    def _step(self, i: int, report: ResilienceReport) -> bool:
        """One training iteration with recovery; False means stalled."""
        attempts = 0
        while True:
            try:
                result = self.engine.run_iteration(
                    self.deployment.dist, self.deployment.schedule,
                    self.deployment.resident_bytes)
            except (DeviceLostError, OutOfMemoryError) as exc:
                attempts += 1
                event = self.detector.observe_error(i, exc)
                report.detections.append(event)
                if attempts > MAX_RECOVERIES:
                    raise ReproError(
                        f"gave up after {MAX_RECOVERIES} recovery "
                        f"attempts at iteration {i}: {exc}") from exc
                if not self._recover(i, event, report):
                    return False
                continue
            soft = self.detector.observe(i, result)
            report.detections.extend(soft)
            report.iteration_times.append(result.makespan)
            self._track_healthy(result.makespan, soft)
            if soft and self.policy == "replan":
                # degraded-but-running: replan once for the batch of
                # detections, keep this iteration's (slow) result
                self._recover(i, soft[0], report)
            return True

    def _track_healthy(self, makespan: float,
                       soft: List[DetectionEvent]) -> None:
        if soft or self.injector.any_active:
            # do not learn a "healthy" baseline from a faulted iteration,
            # but seed one if we never saw a healthy sample at all
            if self._healthy_mean is None:
                self._healthy_mean = makespan
            return
        prev = self._healthy_mean
        self._healthy_mean = makespan if prev is None \
            else 0.7 * prev + 0.3 * makespan

    # ---------------------------------------------------------------- #
    def _handle_capacity(self, i: int, events: List[FaultEvent],
                         steps: int, report: ResilienceReport) -> None:
        """React to fleet changes fired this iteration (policy-dependent)."""
        fleet = self.injector.physical_cluster()
        for ev in events:
            if ev.kind is FaultKind.PREEMPT:
                deadline = self.injector.preempt_pending.get(
                    ev.target, i + ev.count)
                self.recorder.emit(self.episode_id, "preempt_notice",
                                   target=ev.target, deadline=deadline)
            elif ev.kind is FaultKind.RECLAIM:
                self.recorder.emit(self.episode_id, "device_reclaimed",
                                   target=ev.target,
                                   devices=fleet.num_devices)
            else:
                self.recorder.emit(self.episode_id, "device_joined",
                                   target=ev.target,
                                   devices=fleet.num_devices)
        telemetry.emit_gauge(
            "elastic_fleet_devices", fleet.num_devices,
            help="physical fleet size after the latest capacity event")
        if self.policy == "ride":
            return
        notices = [e for e in events if e.kind is FaultKind.PREEMPT]
        arrivals = [e for e in events if e.kind in _ARRIVAL_KINDS]
        if notices and self.policy == "elastic":
            self._drain(i, notices, report)
        if arrivals:
            self._scale_up(i, arrivals, steps, report)

    def _usable_cluster(self):
        """Joins applied, failures removed — the replan target.

        Only the elastic policy acts on advance notice, so only it
        subtracts preempt-pending devices; ``replan`` keeps placing on
        them until they actually die.
        """
        cluster = self.injector.current_cluster()
        if self.policy == "elastic":
            doomed = set(self.injector.preempt_pending) \
                & set(cluster.device_ids)
            if doomed:
                cluster = cluster.without_devices(doomed)
        return cluster

    def _drain(self, i: int, notices: List[FaultEvent],
               report: ResilienceReport) -> None:
        """Replan off dying devices *before* their deadline (elastic)."""
        targets = sorted(e.target for e in notices)
        if not (set(targets) & set(self.deployment.cluster.device_ids)):
            return                # nothing running on the dying devices
        cause = "preempt_notice:" + "+".join(targets)
        recovery = self._replan(i, self._usable_cluster(), cause)
        # the search ran inside the notice window, concurrent with
        # training: only the restart is paid, and nothing is lost
        self._adopt(i, report, recovery, cause=cause, action="replan",
                    trigger="preempt_notice",
                    downtime_seconds=elastic.RESTART_OVERHEAD)

    def _scale_up(self, i: int, arrivals: List[FaultEvent], steps: int,
                  report: ResilienceReport) -> None:
        """Price new capacity; replan onto it only when it pays."""
        cluster = self._usable_cluster()
        if set(cluster.device_ids) \
                <= set(self.deployment.cluster.device_ids):
            return                # arrivals already folded in (or doomed)
        cause = "arrival:" + "+".join(sorted(e.target for e in arrivals))
        if self.policy == "elastic":
            decision = self.elastic_policy.decide(
                self.deployment, cluster,
                healthy_mean=self._healthy_mean,
                remaining_steps=steps - i)
            if not decision.replan:
                self._skip_scale_up(decision.expected_savings,
                                    decision.replan_cost, decision.reason)
                return
        else:
            decision = None       # replan policy adopts unconditionally
        recovery = self._replan(i, cluster, cause)
        adopted = recovery.deployment
        if self.policy == "elastic":
            adopted_time = recovery.outcome.time
            fast_path = self._fast_path_candidate(cluster)
            if fast_path is not None and fast_path[1] < adopted_time:
                adopted, adopted_time = fast_path
            if not self.elastic_policy.should_adopt(
                    self.deployment.sim_result.makespan, adopted_time):
                self._skip_scale_up(
                    0.0, recovery.search_seconds,
                    "searched plan not faster than incumbent")
                return
        self.recorder.emit(
            self.episode_id, "scale_up_replan",
            devices=recovery.cluster.num_devices,
            expected_savings=decision.expected_savings
            if decision is not None else 0.0,
            replan_cost=decision.replan_cost
            if decision is not None else recovery.search_seconds)
        telemetry.emit_count(
            "elastic_scale_up_replans_total",
            help="arrivals adopted via a priced replan")
        # the search ran concurrently with training on the old plan:
        # adoption costs one restart, no work is thrown away
        self._adopt(i, report, recovery, plan=adopted, cause=cause,
                    action="scale_up", trigger="arrival",
                    downtime_seconds=elastic.RESTART_OVERHEAD)

    def _skip_scale_up(self, expected_savings: float, replan_cost: float,
                       reason: str) -> None:
        self.recorder.emit(self.episode_id, "scale_up_skipped",
                           expected_savings=expected_savings,
                           replan_cost=replan_cost, reason=reason)
        telemetry.emit_count(
            "elastic_scale_ups_skipped_total",
            help="arrivals where replanning did not pay")

    def _fast_path_candidate(self, cluster):
        """The no-search arrival plan: all ops on the fastest new device.

        A latency-bound graph often beats any multi-device plan by
        simply moving whole onto the fastest arriving GPU — a candidate
        the episodic search rarely samples.  It is one build request to
        the replanner's service under the replanner's config, so it is
        priced on the warm context (and profile) the replan just used,
        like the searched plan it is compared with.  Costs one plan
        build (one simulation), deterministic; returns ``(deployment,
        predicted)`` or None when the candidate is infeasible or no
        device is new.
        """
        from ..parallel.strategy import single_device_strategy
        from ..service import PlanRequest

        new_ids = set(cluster.device_ids) \
            - set(self.deployment.cluster.device_ids)
        if not new_ids:
            return None
        fastest = max((cluster.device(d) for d in sorted(new_ids)),
                      key=lambda d: d.compute_power)
        replanner = self.replanner
        try:
            plan = replanner.service.plan(PlanRequest(
                graph=replanner.graph, cluster=cluster,
                strategy=single_device_strategy(
                    replanner.graph, cluster, device=fastest.device_id),
                config=replanner.config, label="fast_path")).deployment
        except ReproError:
            return None
        if plan is None or plan.sim_result.oom_devices:
            return None
        return plan, plan.sim_result.makespan

    def _maybe_rebuild_engine(self) -> None:
        """Grow the engine when the adopted plan uses devices it lacks.

        The rebuilt engine models the *physical* fleet (failures stay
        visible through the injector's overlay) and continues the old
        engine's RNG stream, so jitter draws are unaffected by when the
        rebuild happens.
        """
        if set(self.deployment.cluster.device_ids) \
                <= set(self.engine.cluster.device_ids):
            return
        old = self.engine
        self.engine = ExecutionEngine(
            self.injector.physical_cluster(),
            jitter_sigma=old.cost.jitter_sigma,
            rng=old.rng,
            fault_injector=self.injector,
        )

    # ---------------------------------------------------------------- #
    def _recover(self, i: int, event: DetectionEvent,
                 report: ResilienceReport) -> bool:
        """Handle one detection; False means the run cannot continue."""
        cause = f"{event.kind}:{event.resource}"
        if self.policy == "ride":
            if event.is_hard:
                # a dead device cannot be ridden out
                report.recoveries.append(RecoveryRecord(
                    iteration=i, cause=cause, action="stall",
                    devices_after=self.deployment.cluster.num_devices,
                ))
                return False
            report.recoveries.append(RecoveryRecord(
                iteration=i, cause=cause, action="ride",
                devices_after=self.deployment.cluster.num_devices,
            ))
            return True

        # replan / elastic policy: re-search on what is usable right now
        detection_lag = self._healthy_mean or 0.0
        recovery = self._replan(i, self._usable_cluster(), cause)
        self._adopt(i, report, recovery, cause=cause, action="replan",
                    downtime_seconds=detection_lag
                    + recovery.search_seconds + elastic.RESTART_OVERHEAD,
                    lost_work_seconds=detection_lag if event.is_hard
                    else 0.0)
        return True

    # ---------------------------------------------------------------- #
    def _replan(self, i: int, cluster, cause: str) -> RecoveryPlan:
        """Search a deployment on ``cluster``; journal it and feed its
        wall-clock into the elastic search-cost estimate."""
        self.recorder.emit(self.episode_id, "replan_started",
                           devices=cluster.num_devices, cause=cause,
                           iteration=i)
        with telemetry.span("resilience.recover", iteration=i, cause=cause):
            recovery = self.replanner.replan(cluster)
        self.recorder.emit(self.episode_id, "replan_completed",
                           seconds=recovery.search_seconds,
                           feasible=recovery.feasible,
                           request_id_of_replan=recovery.request_id)
        self.elastic_policy.observe_search(recovery.search_seconds)
        return recovery

    def _adopt(self, i: int, report: ResilienceReport,
               recovery: RecoveryPlan, *,
               plan: Optional[ExecutionPlan] = None, **record) -> None:
        """Switch to ``plan`` (default: the searched one), book the
        recovery and journal the resume."""
        self.deployment = plan if plan is not None else recovery.deployment
        self.detector.reset()
        self._maybe_rebuild_engine()
        report.recoveries.append(RecoveryRecord(
            iteration=i, search_seconds=recovery.search_seconds,
            plan_cache_hits=recovery.plan_cache_hits,
            devices_after=recovery.cluster.num_devices, **record))
        self.recorder.emit(self.episode_id, "resumed", iteration=i,
                           devices=recovery.cluster.num_devices)

    # ---------------------------------------------------------------- #
    @staticmethod
    def _export(report: ResilienceReport) -> None:
        tel = telemetry.active()
        if tel is None:
            return
        reg = tel.registry
        mttr = report.mttr
        if mttr == mttr:  # not NaN
            reg.gauge(
                "resilience_mttr_seconds",
                help="mean time to recovery over the run's replans",
            ).set(mttr)
        reg.counter(
            "resilience_lost_work_seconds_total",
            help="simulated work discarded due to faults",
        ).inc(report.lost_work)
        reg.counter(
            "resilience_downtime_seconds_total",
            help="simulated downtime spent detecting and replanning",
        ).inc(report.total_downtime)
        reg.gauge(
            "resilience_completed_steps",
            help="training steps completed by the last resilient run",
        ).set(report.completed_steps)
        if report.stalled:
            reg.counter(
                "resilience_stalls_total",
                help="runs that could not continue (ride policy + crash)",
            ).inc()
