"""Scale-up economics: when is replanning onto new capacity worth it?

On every arrival the :class:`ElasticPolicy` answers one question for
the :class:`~repro.resilience.ResilientTrainer`: *replan now, or ride
the current plan?*  It prices both sides:

- **expected savings** — the admissible makespan lower bound of the
  *current* plan's kernel (the same bound branch-and-bound pruning
  uses, see :func:`~repro.simulation.kernel.kernel_lower_bound`: the
  max of the busiest resource's load, the critical path, and the
  one-machine term, min head + load + min tail, of each link, NIC port
  and the NCCL token) is compared with the floor the enlarged fleet
  could reach.  A replan repartitions the graph, so every bound term
  shrinks as per-device work drops; the optimistic perfect-scaling
  floor is
  ``bound_after = bound_before * P_old / P_new`` with ``P`` the fleet's
  aggregate compute power.  Savings = the bound's relative drop
  (``1 - P_old / P_new``, whatever the bound's value), scaled by the
  observed healthy iteration time and the steps remaining.
- **replan cost** — the restart overhead plus a running estimate of
  search wall-clock (an EMA over the searches this trainer already
  paid for; zero until the first one, i.e. optimistic).

Replanning happens only when savings strictly exceed cost.  A second
guard runs *after* the search: the found plan is adopted only if its
predicted time actually beats the current plan's, so a noisy few-episode
search can never talk the trainer into a slower deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster.topology import Cluster
from ..plan import ExecutionPlan
from ..simulation.costs import ProfileCostModel
from ..simulation.kernel import kernel_lower_bound


@dataclass(frozen=True)
class ScaleDecision:
    """What the policy concluded about one arrival."""

    replan: bool
    expected_savings: float      # engine-seconds the new fleet could save
    replan_cost: float           # restart overhead + search-cost estimate
    bound_before: float          # current plan's makespan lower bound
    bound_after: float           # estimated bound on the enlarged fleet
    reason: str


#: weight of the newest search in the search-cost moving average
SEARCH_COST_SMOOTHING = 0.5
#: seconds a recovery adds for process respawn and weight re-shard, on
#: top of detection and search (the simulated fleet restarts for free)
RESTART_OVERHEAD = 0.0


class ElasticPolicy:
    """Decides whether new capacity pays for a replan."""

    def __init__(self) -> None:
        self._search_cost = 0.0      # EMA of observed search wall-clock
        self._searches = 0

    # ---------------------------------------------------------------- #
    @property
    def search_cost_estimate(self) -> float:
        """Expected wall-clock of the next replan search (EMA)."""
        return self._search_cost

    def observe_search(self, seconds: float) -> None:
        """Feed one observed search duration into the cost estimate."""
        if self._searches == 0:
            self._search_cost = seconds
        else:
            self._search_cost = (
                (1 - SEARCH_COST_SMOOTHING) * self._search_cost
                + SEARCH_COST_SMOOTHING * seconds)
        self._searches += 1

    # ---------------------------------------------------------------- #
    def decide(self, deployment: ExecutionPlan, new_cluster: Cluster, *,
               healthy_mean: Optional[float],
               remaining_steps: int) -> ScaleDecision:
        """Replan-or-ride for an arrival that grew the fleet to
        ``new_cluster`` while ``deployment`` is still running."""
        cost = ProfileCostModel(deployment.cluster, deployment.profile)
        bound_before = kernel_lower_bound(deployment.kernel, cost)
        if bound_before is None:  # pragma: no cover - profile cost is
            # deterministic; be optimistic and let the post-search
            # adoption guard protect the trainer
            return ScaleDecision(True, float("inf"),
                                 RESTART_OVERHEAD + self._search_cost,
                                 float("nan"), float("nan"),
                                 "no deterministic bound; replanning")

        power_old = sum(d.compute_power for d in deployment.cluster.devices)
        power_new = sum(d.compute_power for d in new_cluster.devices)
        if power_new <= power_old or bound_before <= 0.0:
            return ScaleDecision(False, 0.0,
                                 RESTART_OVERHEAD + self._search_cost,
                                 bound_before, bound_before,
                                 "fleet did not gain compute power")
        # a replan repartitions the graph, so per-device work on every
        # bound term shrinks: perfect-scaling floor for the new fleet
        bound_after = bound_before * power_old / power_new

        per_iter = healthy_mean if healthy_mean is not None else bound_before
        frac = max(0.0, 1.0 - bound_after / bound_before)
        expected_savings = per_iter * frac * max(0, remaining_steps)
        replan_cost = RESTART_OVERHEAD + self._search_cost
        replan = expected_savings > replan_cost
        reason = (f"bound {bound_before:.4f}s -> {bound_after:.4f}s over "
                  f"{remaining_steps} steps: savings "
                  f"{expected_savings:.4f}s "
                  f"{'>' if replan else '<='} cost {replan_cost:.4f}s")
        return ScaleDecision(replan, expected_savings, replan_cost,
                             bound_before, bound_after, reason)

    # ---------------------------------------------------------------- #
    def should_adopt(self, current_time: float,
                     candidate_time: float) -> bool:
        """Post-search guard: adopt only a strictly better predicted plan."""
        if current_time != current_time:   # NaN: nothing to compare against
            return True
        return candidate_time < current_time
