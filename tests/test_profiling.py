"""Tests for the cost model, measurements, regressions, and Profiler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import GTX_1080TI, TESLA_V100
from repro.errors import ProfilingError
from repro.graph.op import Operation, TensorSpec
from repro.profiling import (
    MeasurementNoise,
    OpTimeRegression,
    Profiler,
    TransferTimeRegression,
    exact_profile,
    op_class,
    op_time,
)
from repro.profiling.cost_model import bytes_touched, op_memory_bytes
from repro.profiling.regression import fit_lines


def conv_op(flops=1e10, out=(32, 56, 56, 64)):
    return Operation("c", "Conv2D", TensorSpec(out), flops=flops,
                     param_bytes=1024)


class TestOpClass:
    def test_known_types(self):
        assert op_class("Conv2D") == "conv"
        assert op_class("MatMul") == "gemm"
        assert op_class("Relu") == "elementwise"
        assert op_class("MaxPool") == "reduce"

    def test_backward_classes(self):
        # conv backward kernels have dedicated classes (Fig. 3(b) spread)
        assert op_class("Conv2DBpInput") == "conv_bp_input"
        assert op_class("Conv2DBpFilter") == "conv_bp_filter"
        # other backward ops inherit the forward class
        assert op_class("MatMulBpFilter") == "gemm"
        assert op_class("ReluBpInput") == "elementwise"

    def test_unknown_defaults_other(self):
        assert op_class("SomethingNew") == "other"


class TestOpTime:
    def test_faster_gpu_faster_for_compute_bound(self):
        op = conv_op(flops=1e11)
        assert op_time(op, TESLA_V100) < op_time(op, GTX_1080TI)

    def test_compute_bound_ratio_matches_fig3b(self):
        """Large Conv2D: the calibrated ~1.9x of Fig. 3(b)."""
        op = conv_op(flops=1e12)
        ratio = op_time(op, GTX_1080TI) / op_time(op, TESLA_V100)
        assert 1.7 <= ratio <= 2.0

    def test_tiny_op_overhead_bound(self):
        op = Operation("r", "Relu", TensorSpec((1, 4)), flops=4.0)
        ratio = op_time(op, GTX_1080TI) / op_time(op, TESLA_V100)
        assert ratio < 1.5  # launch-overhead regime: small gap

    def test_batch_fraction_scales_time_down(self):
        op = conv_op(flops=1e11)
        assert op_time(op, TESLA_V100, 0.25) < op_time(op, TESLA_V100, 1.0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            op_time(conv_op(), TESLA_V100, 0.0)

    @given(st.floats(0.1, 1.0), st.floats(0.1, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_fraction(self, f1, f2):
        op = conv_op(flops=1e11)
        lo, hi = sorted([f1, f2])
        assert op_time(op, TESLA_V100, lo) <= op_time(op, TESLA_V100, hi) + 1e-12

    def test_bytes_touched_scales_with_fraction(self):
        op = conv_op()
        assert bytes_touched(op, 0.5) < bytes_touched(op, 1.0)

    def test_memory_bytes_unbatched_full(self):
        from repro.profiling.cost_model import ACTIVATION_OVERHEAD
        op = Operation("g", "Conv2DBpFilter",
                       TensorSpec((256,), batch_dim=None),
                       flops=1e9, batch_scaled=True)
        # unbatched output: no batch-fraction scaling, overhead applies
        assert op_memory_bytes(op, 0.25) == int(
            op.output.size_bytes * ACTIVATION_OVERHEAD)


class TestRegressions:
    def test_op_regression_recovers_linear(self):
        fractions = [0.25, 0.5, 1.0]
        times = [0.5 * f + 0.1 for f in fractions]
        reg = OpTimeRegression.fit(fractions, times)
        assert reg.predict(0.75) == pytest.approx(0.475, rel=1e-6)

    def test_op_regression_floor(self):
        reg = OpTimeRegression(slope=-1.0, intercept=0.0)
        assert reg.predict(1.0) == 1e-9

    def test_op_regression_rejects_empty(self):
        with pytest.raises(ProfilingError):
            OpTimeRegression.fit([], [])

    def test_op_regression_rejects_nonpositive_fraction(self):
        reg = OpTimeRegression.fit([0.5, 1.0], [1.0, 2.0])
        with pytest.raises(ProfilingError):
            reg.predict(0.0)

    def test_transfer_regression_recovers_bandwidth(self):
        sizes = [1e6, 1e7, 1e8]
        bw, lat = 5e9, 1e-5
        times = [lat + s / bw for s in sizes]
        reg = TransferTimeRegression.fit(sizes, times)
        assert reg.bandwidth == pytest.approx(bw, rel=1e-6)
        assert reg.latency == pytest.approx(lat, rel=1e-3)

    def test_transfer_regression_negative_size(self):
        reg = TransferTimeRegression.fit([1e6, 1e7], [0.1, 0.2])
        with pytest.raises(ProfilingError):
            reg.predict(-1)

    @given(st.floats(1e8, 1e10), st.floats(1e-6, 1e-4))
    @settings(max_examples=20, deadline=None)
    def test_transfer_fit_roundtrip(self, bandwidth, latency):
        sizes = [1e5, 1e6, 1e7, 1e8]
        times = [latency + s / bandwidth for s in sizes]
        reg = TransferTimeRegression.fit(sizes, times)
        for s in sizes:
            assert reg.predict(s) == pytest.approx(times[sizes.index(s)],
                                                   rel=1e-6)


class TestProfiler:
    def test_profile_covers_all_ops_and_links(self, mlp_graph, four_gpu,
                                              mlp_profile):
        models = {d.spec.model for d in four_gpu.devices}
        assert len(mlp_profile.op_models) == len(mlp_graph) * len(models)
        assert len(mlp_profile.link_models) == 4 * 3

    def test_predictions_close_to_truth(self, mlp_graph, four_gpu):
        profile = exact_profile(mlp_graph, four_gpu)
        spec = four_gpu.device("gpu0").spec
        for op in mlp_graph:
            pred = profile.op_time(op.name, "gpu0", 1.0)
            truth = op_time(op, spec, 1.0)
            assert pred == pytest.approx(truth, rel=0.15)

    def test_noise_changes_predictions(self, mlp_graph, four_gpu):
        noisy = Profiler(noise=MeasurementNoise(0.1), seed=1).profile(
            mlp_graph, four_gpu
        )
        exact = exact_profile(mlp_graph, four_gpu)
        diffs = [
            abs(noisy.op_time(op.name, "gpu0") - exact.op_time(op.name, "gpu0"))
            for op in mlp_graph
        ]
        assert max(diffs) > 0

    def test_deterministic_given_seed(self, mlp_graph, four_gpu):
        p1 = Profiler(seed=42).profile(mlp_graph, four_gpu)
        p2 = Profiler(seed=42).profile(mlp_graph, four_gpu)
        name = mlp_graph.op_names[3]
        assert p1.op_time(name, "gpu0") == p2.op_time(name, "gpu0")

    def test_unknown_op_rejected(self, mlp_profile):
        with pytest.raises(ProfilingError):
            mlp_profile.op_time("nope", "gpu0")

    def test_unknown_device_rejected(self, mlp_profile, mlp_graph):
        with pytest.raises(ProfilingError):
            mlp_profile.op_time(mlp_graph.op_names[0], "gpu77")

    def test_transfer_self_is_zero(self, mlp_profile):
        assert mlp_profile.transfer_time("gpu0", "gpu0", 1e6) == 0.0

    def test_transfer_positive(self, mlp_profile):
        assert mlp_profile.transfer_time("gpu0", "gpu2", 1e6) > 0


def _coefficients(profile):
    """Every fitted coefficient as float.hex, in insertion order."""
    return ([(key, reg.slope.hex(), reg.intercept.hex())
             for key, reg in profile.op_models.items()],
            [(key, reg.inv_bandwidth.hex(), reg.latency.hex())
             for key, reg in profile.link_models.items()],
            profile.device_model)


class TestStackedFits:
    """The stacked fits against the per-fit loop in ``tests.oracle``."""

    @pytest.mark.parametrize("model", ["inception_v3", "transformer",
                                       "vgg19", "bert_large"])
    def test_profile_matches_per_fit_oracle(self, model):
        from repro.cluster.presets import (cluster_2gpu, cluster_4gpu,
                                           cluster_8gpu, cluster_12gpu)
        from repro.graph.models import build_model
        from tests.oracle.profile import reference_profile

        graph = build_model(model, "bench")
        for cluster in (cluster_2gpu(), cluster_4gpu(), cluster_8gpu(),
                        cluster_12gpu()):
            for seed in (0, 7):
                for sigma in (0.03, 0.0):
                    profiler = Profiler(noise=MeasurementNoise(sigma),
                                        seed=seed)
                    assert _coefficients(profiler.profile(graph, cluster)) \
                        == _coefficients(reference_profile(profiler, graph,
                                                           cluster))

    def test_one_fraction_profile_matches_oracle(self, mlp_graph, four_gpu):
        from tests.oracle.profile import reference_profile

        profiler = Profiler(fractions=(0.5,), sizes=(1e6,), seed=3)
        profile = profiler.profile(mlp_graph, four_gpu)
        assert _coefficients(profile) == _coefficients(
            reference_profile(profiler, mlp_graph, four_gpu))
        assert all(reg.slope == 0.0 for reg in profile.op_models.values())

    def test_nan_sample_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            OpTimeRegression.fit([0.5, 1.0], [float("nan"), 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            fit_lines([0.5, 1.0], [[1.0, 2.0], [float("nan"), 1.0]])

    def test_gufunc_matches_public_lstsq(self):
        """The LAPACK gufunc the fits call, bit for bit against the
        public wrapper, row by row, with the wrapper's default rcond."""
        rng = np.random.default_rng(0)
        for k in (2, 3, 4, 7):
            xs = np.sort(rng.uniform(0.1, 1.0, k))
            ys = rng.uniform(1e-6, 1e-2, (16, k))
            slopes, intercepts = fit_lines(xs, ys)
            for row, slope, intercept in zip(ys, slopes, intercepts):
                weights = 1.0 / np.maximum(np.abs(row), 1e-12)
                design = np.stack([xs, np.ones_like(xs)], axis=1) \
                    * weights[:, None]
                coef = np.linalg.lstsq(design, row * weights, rcond=None)[0]
                assert (coef[0].hex(), coef[1].hex()) \
                    == (slope.hex(), intercept.hex())

    def test_split_gufuncs_chosen_as_numpy_2_0_does(self, monkeypatch):
        """Without the single ``lstsq`` gufunc (numpy 2.0), the fits
        take ``lstsq_m`` for samples <= unknowns and ``lstsq_n`` above,
        and answer exactly as the single gufunc does."""
        from types import SimpleNamespace

        from repro.profiling import regression

        called = []

        def recording(name):
            def gufunc(*args, **kwargs):
                called.append(name)
                return np.linalg._umath_linalg.lstsq(*args, **kwargs)
            return gufunc

        rng = np.random.default_rng(1)
        cases = [(xs, rng.uniform(1e-6, 1e-2, (8, len(xs))))
                 for xs in ([0.5, 1.0], [0.25, 0.5, 1.0])]
        expected = [fit_lines(xs, ys) for xs, ys in cases]
        monkeypatch.setattr(regression, "_umath_linalg", SimpleNamespace(
            lstsq_m=recording("lstsq_m"), lstsq_n=recording("lstsq_n")))
        for (xs, ys), (slopes, intercepts) in zip(cases, expected):
            got_slopes, got_intercepts = fit_lines(xs, ys)
            assert got_slopes.tolist() == slopes.tolist()
            assert got_intercepts.tolist() == intercepts.tolist()
        assert called == ["lstsq_m", "lstsq_n"]

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ProfilingError):
            fit_lines([0.5, 1.0], [[1.0, 2.0, 3.0]])
