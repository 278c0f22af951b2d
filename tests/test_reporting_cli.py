"""Tests for the reporting utilities and the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.cluster import cluster_4gpu
from repro.parallel import GraphCompiler, make_mp_strategy, single_device_strategy
from repro.parallel.distgraph import DistGraph
from repro.profiling import exact_profile
from repro.reporting import (
    chrome_trace,
    describe_strategy,
    save_chrome_trace,
    strategy_diff,
    text_gantt,
)
from repro.simulation import ProfileCostModel, Simulator
from repro.simulation.costs import MappingCostModel

from tests.helpers import make_mlp


@pytest.fixture(scope="module")
def traced():
    cluster = cluster_4gpu()
    graph = make_mlp(name="report_mlp")
    profile = exact_profile(graph, cluster)
    compiler = GraphCompiler(cluster, profile)
    strategy = single_device_strategy(graph, cluster)
    strategy.set(graph.op_names[2], make_mp_strategy("gpu2"))
    dist = compiler.compile(graph, strategy)
    result = Simulator(ProfileCostModel(cluster, profile)).run(dist)
    return graph, cluster, strategy, dist, result


class TestReporting:
    def test_text_gantt(self, traced):
        _, _, _, dist, result = traced
        chart = text_gantt(dist, result)
        assert "gpu0" in chart
        assert "#" in chart

    def test_gantt_requires_trace(self, traced):
        """The run of an empty graph has no per-op schedule to draw."""
        _, _, _, dist, _ = traced
        empty = Simulator(MappingCostModel({})).run(DistGraph("empty"))
        with pytest.raises(ValueError, match="no per-op schedule"):
            text_gantt(dist, empty)

    def test_chrome_trace_events(self, traced):
        _, _, _, dist, result = traced
        events = chrome_trace(dist, result)
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(dist)
        assert all(e["dur"] >= 0 for e in slices)

    def test_chrome_trace_metadata_stable_tids(self, traced):
        _, _, _, dist, result = traced
        events = chrome_trace(dist, result)
        meta = [e for e in events if e["ph"] == "M"]
        thread_names = {e["tid"]: e["args"]["name"] for e in meta
                        if e["name"] == "thread_name" and e["pid"] == 0}
        # devices first (sorted), then links, then nccl
        names = [thread_names[t] for t in sorted(thread_names)]
        devices = [n for n in names if not n.startswith("link ")
                   and n != "nccl"]
        assert names[:len(devices)] == sorted(devices)
        assert any(e["name"] == "process_name" for e in meta)
        # slices reference the metadata tids
        tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert tids <= set(thread_names)

    def test_chrome_trace_flows_and_counters(self, traced):
        _, _, _, dist, result = traced
        events = chrome_trace(dist, result)
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert starts and len(starts) == len(finishes)
        counters = [e for e in events if e["ph"] == "C"]
        assert any(e["name"].startswith("mem ") for e in counters)

    def test_save_chrome_trace(self, traced, tmp_path):
        _, _, _, dist, result = traced
        path = tmp_path / "trace.json"
        save_chrome_trace(dist, result, str(path))
        data = json.loads(path.read_text())
        assert "traceEvents" in data

    def test_strategy_diff(self, traced):
        graph, cluster, strategy, _, _ = traced
        other = single_device_strategy(graph, cluster)
        diff = strategy_diff(strategy, other)
        assert len(diff) == 1
        (name, (a, b)), = diff.items()
        assert a == "MP:gpu2" and b == "MP:gpu0"

    def test_describe_strategy(self, traced):
        _, _, strategy, _, _ = traced
        text = describe_strategy(strategy)
        assert "strategy mix" in text
        assert "MP:gpu0" in text


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["models"])
        assert args.command == "models"

    def test_models_command(self, capsys):
        assert main(["models", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "vgg19" in out
        assert "xlnet_large" in out

    def test_clusters_command(self, capsys):
        assert main(["clusters"]) == 0
        out = capsys.readouterr().out
        assert "Tesla V100" in out
        assert "12gpu" in out

    def test_baselines_command(self, capsys):
        assert main(["baselines", "vgg19", "--preset", "tiny",
                     "--cluster", "4gpu"]) == 0
        out = capsys.readouterr().out
        assert "EV-PS" in out and "CP-AR" in out

    def test_fig3b_experiment(self, capsys):
        assert main(["experiment", "fig3b"]) == 0
        out = capsys.readouterr().out
        assert "Conv2D" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCLITrace:
    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        out = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        assert main(["trace", "transformer", "4gpu", "--preset", "tiny",
                     "--episodes", "2", "-o", out,
                     "--metrics-out", metrics]) == 0
        captured = capsys.readouterr().out
        assert "critical path" in captured
        data = json.loads(open(out).read())
        events = data["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "M", "C", "s", "f"} <= phases
        span_names = {e["name"] for e in events
                      if e["ph"] == "X" and e["pid"] == 1}
        assert "pipeline.search" in span_names
        assert "pipeline.execute" in span_names
        series = json.loads(open(metrics).read())["metrics"]
        names = {m["name"] for m in series}
        assert {"sim_queue_wait_seconds", "sim_resource_wait_seconds_total",
                "sched_chosen_total", "agent_episode_reward"} <= names
        # durations come from the session's spans, one series per span
        span_series = {m["labels"]["span"]: m for m in series
                       if m["name"] == "span_seconds"}
        for span in ("simulate", "schedule.ranking", "schedule.placement",
                     "agent.episode"):
            assert span_series[span]["count"] > 0

    def test_trace_resolves_cluster_aliases(self, tmp_path):
        out = str(tmp_path / "t.json")
        assert main(["trace", "transformer", "cluster4", "--preset", "tiny",
                     "--episodes", "1", "-o", out]) == 0

    def test_trace_unknown_model_one_line_error(self, capsys):
        assert main(["trace", "nosuchmodel", "8gpu"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_trace_unknown_cluster_one_line_error(self, capsys):
        assert main(["trace", "resnet", "cluster99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCLIPlan:
    def test_plan_command_tiny(self, capsys, tmp_path, monkeypatch):
        """Full plan path: search, report, save strategy JSON."""
        monkeypatch.setenv("REPRO_EPISODES", "4")
        save = str(tmp_path / "strategy.json")
        # patch the model registry call path via CLI args only: use the
        # smallest model at tiny preset on the 4-GPU cluster
        assert main(["plan", "transformer", "--preset", "tiny",
                     "--cluster", "4gpu", "--episodes", "5",
                     "--save", save]) == 0
        out = capsys.readouterr().out
        assert "per-iteration time" in out
        assert "strategy mix" in out
        import json
        data = json.loads(open(save).read())
        assert data["per_op"]

    @pytest.mark.parametrize("command", [
        ["plan", "transformer", "--preset", "tiny"],
        ["churn", "transformer", "--preset", "tiny", "--quick"],
    ])
    def test_workers_option_rejected(self, capsys, command):
        """plan/churn evaluate candidates serially and take no
        --workers: the parser rejects it with exit 2, naming the flag."""
        with pytest.raises(SystemExit) as exc:
            main(command + ["--workers", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --workers 2" in err
        assert "Traceback" not in err

    def test_experiment_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])
