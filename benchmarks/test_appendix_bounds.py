"""Appendix: Theorems 1 and 2 on the list-scheduling bound.

- Theorem 1: T_LS <= (M + M^2) T* — checked via the proof's two
  inequalities (T_LS <= total work; T* >= work / (M + M^2)).
- Theorem 2: a crafted instance where strict-order LS approaches the
  bound: T_LS / T* ~ M + M^2 = H.
"""

import pytest

from repro.scheduling import (
    optimal_lower_bound,
    total_work,
    worst_case_instance,
)
from repro.simulation import Simulator


def _run_instance(h, k):
    inst = worst_case_instance(h=h, k=k, p=1.0, e=1e-6)
    res = Simulator(inst.cost).run(inst.graph, order=inst.order,
                                   strict=True)
    return inst, res


def test_appendix_worst_case(benchmark, report):
    inst, res = benchmark.pedantic(lambda: _run_instance(4, 30),
                                   rounds=1, iterations=1)
    lines = [
        f"H = M + M^2 = {inst.num_devices}",
        f"simulated T_LS      = {res.makespan:.3f}",
        f"closed-form T_LS    = {inst.t_ls_formula:.3f}",
        f"closed-form T*      = {inst.t_opt_formula:.3f}",
        f"simulated ratio     = {res.makespan / inst.t_opt_formula:.2f}",
        f"theorem bound       = {inst.num_devices}",
    ]
    report("Appendix — Theorem 2 worst-case instance", "\n".join(lines))
    assert res.makespan / inst.t_opt_formula == pytest.approx(
        inst.num_devices, rel=0.05
    )


@pytest.mark.parametrize("h,k", [(3, 20), (4, 20), (5, 15)])
def test_theorem1_bound_holds(h, k):
    inst, res = _run_instance(h, k)
    work = total_work(inst.graph, inst.cost)
    assert res.makespan <= work + 1e-9
    lower = optimal_lower_bound(inst.graph, inst.cost, h)
    assert res.makespan <= h * lower * 1.05


@pytest.mark.parametrize("h", [3, 4, 5, 6])
def test_ratio_scales_with_h(h):
    inst = worst_case_instance(h=h, k=25, p=1.0, e=1e-7)
    assert inst.ratio_formula == pytest.approx(h, rel=0.1)
