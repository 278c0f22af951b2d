"""Tests for strategy serialization: what ``repro plan --save`` writes
and ``load_strategy`` reads back."""

import pytest

from repro.baselines import dp_strategy
from repro.errors import StrategyError
from repro.parallel import make_mp_strategy, single_device_strategy
from repro.parallel.serialize import (
    load_strategy,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
)

from tests.helpers import make_mlp


class TestStrategySerialization:
    def test_roundtrip(self, tmp_path, four_gpu):
        graph = make_mlp(name="st_mlp")
        strategy = dp_strategy("CP-AR", graph, four_gpu)
        strategy.set(graph.op_names[0], make_mp_strategy("gpu1"))
        path = tmp_path / "strategy.json"
        save_strategy(strategy, str(path))
        loaded = load_strategy(str(path), graph, four_gpu)
        for name in graph.op_names:
            assert loaded.get(name).label() == strategy.get(name).label()

    def test_wrong_graph_rejected(self, four_gpu):
        g1 = make_mlp(name="g1_mlp")
        g2 = make_mlp(name="g2_mlp")
        data = strategy_to_dict(single_device_strategy(g1, four_gpu))
        with pytest.raises(StrategyError):
            strategy_from_dict(data, g2, four_gpu)

    def test_wrong_cluster_rejected(self, four_gpu, eight_gpu):
        g = make_mlp(name="g3_mlp")
        data = strategy_to_dict(single_device_strategy(g, four_gpu))
        with pytest.raises(StrategyError):
            strategy_from_dict(data, g, eight_gpu)

    def test_unknown_kind_rejected(self, four_gpu):
        g = make_mlp(name="g4_mlp")
        data = strategy_to_dict(single_device_strategy(g, four_gpu))
        first = next(iter(data["per_op"]))
        data["per_op"][first]["kind"] = "quantum"
        with pytest.raises(StrategyError):
            strategy_from_dict(data, g, four_gpu)
