"""Unit tests for TensorSpec and Operation."""

import pytest
from hypothesis import given, strategies as st

from repro.graph.op import DTYPE_BYTES, Operation, OpPhase, TensorSpec


class TestTensorSpec:
    def test_num_elements(self):
        assert TensorSpec((4, 8, 2)).num_elements == 64

    def test_size_bytes(self):
        assert TensorSpec((10,)).size_bytes == 10 * DTYPE_BYTES

    def test_scalarish_shape(self):
        assert TensorSpec((3,), batch_dim=None).num_elements == 3

    def test_batch_size(self):
        assert TensorSpec((16, 3)).batch_size == 16

    def test_no_batch_dim(self):
        assert TensorSpec((16, 3), batch_dim=None).batch_size is None

    def test_batch_dim_out_of_range(self):
        with pytest.raises(ValueError):
            TensorSpec((4,), batch_dim=2)


class TestOperation:
    def _op(self, **kw):
        defaults = dict(name="op", op_type="MatMul",
                        output=TensorSpec((4, 8)), flops=100.0)
        defaults.update(kw)
        return Operation(**defaults)

    def test_basic_fields(self):
        op = self._op()
        assert op.output.size_bytes == 4 * 8 * DTYPE_BYTES
        assert op.is_replicable

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            self._op(name="")

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            self._op(flops=-1.0)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            self._op(param_bytes=-4)

    def test_unbatched_type_with_batch_dim_rejected(self):
        with pytest.raises(ValueError):
            self._op(op_type="ApplyGradient", output=TensorSpec((4, 8)))

    def test_batch_scaled_inferred_true(self):
        assert self._op().batch_scaled is True

    def test_batch_scaled_inferred_false(self):
        op = self._op(output=TensorSpec((8,), batch_dim=None))
        assert op.batch_scaled is False
        assert not op.is_replicable

    def test_batch_scaled_override(self):
        """Conv2DBpFilter: unbatched output but batch-scaled compute."""
        op = self._op(op_type="Conv2DBpFilter",
                      output=TensorSpec((64,), batch_dim=None),
                      batch_scaled=True, phase=OpPhase.BACKWARD,
                      param_bytes=256)
        assert op.is_replicable
        assert op.produces_param_gradient

    def test_scaled_flops_batched(self):
        assert self._op(flops=100.0).scaled_flops(0.25) == 25.0

    def test_scaled_flops_unbatched(self):
        op = self._op(output=TensorSpec((8,), batch_dim=None), flops=100.0)
        assert op.scaled_flops(0.25) == 100.0

    def test_produces_param_gradient_requires_backward(self):
        op = self._op(param_bytes=64)  # forward op with params
        assert not op.produces_param_gradient

    @given(st.floats(0.01, 1.0))
    def test_scaled_flops_linear(self, fraction):
        op = self._op(flops=1000.0)
        assert op.scaled_flops(fraction) == pytest.approx(1000.0 * fraction)
