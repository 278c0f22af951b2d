"""Operation and tensor primitives of the computation-graph IR.

The paper models a DNN as a DAG whose nodes are operations (Conv2D, MatMul,
...) and whose edges are tensors (activations, gradients).  We follow the
same convention with one simplification that matches how HeteroG consumes
the graph: every operation produces exactly one output tensor, and an edge
``u -> v`` means "v consumes u's output tensor".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

DTYPE_BYTES = 4  # fp32 throughout, matching the paper's training setup


class OpPhase(enum.Enum):
    """Which part of a training iteration an operation belongs to."""

    INPUT = "input"
    FORWARD = "forward"
    LOSS = "loss"
    BACKWARD = "backward"
    APPLY = "apply"


# Operation types with a batch dimension in their output can be replicated by
# splitting the input along the batch axis (Sec. 2.2 / Sec. 5 of the paper).
# Types in this set never carry a batch dimension.
UNBATCHED_OP_TYPES = frozenset(
    {
        "VariableRead",
        "ApplyGradient",
        "GradientAggregation",
        "LearningRate",
    }
)


@dataclass(frozen=True)
class TensorSpec:
    """Shape/dtype description of an operation's output tensor.

    ``batch_dim`` is the axis holding the mini-batch (always 0 here) or
    ``None`` for tensors without a batch dimension (parameters, gradients
    of parameters, scalars).
    """

    shape: Tuple[int, ...]
    batch_dim: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.batch_dim is not None and self.batch_dim >= len(self.shape):
            raise ValueError(
                f"batch_dim {self.batch_dim} out of range for shape {self.shape}"
            )

    @property
    def num_elements(self) -> int:
        return int(math.prod(self.shape)) if self.shape else 1

    @property
    def size_bytes(self) -> int:
        # memoized: specs are frozen and this is on the compiler's and
        # cost models' hottest paths
        cached = getattr(self, "_size_cache", None)
        if cached is None:
            cached = self.num_elements * DTYPE_BYTES
            object.__setattr__(self, "_size_cache", cached)
        return cached

    @property
    def batch_size(self) -> Optional[int]:
        if self.batch_dim is None:
            return None
        return self.shape[self.batch_dim]

@dataclass
class Operation:
    """A node of the single-GPU computation DAG.

    Attributes mirror what HeteroG's Profiler/Agent need:

    - ``flops``: forward (or backward) floating point work for the *full*
      mini-batch.  Per-replica work scales with the batch share.
    - ``param_bytes``: bytes of trainable parameters owned by this op.  Ops
      with ``param_bytes > 0`` and phase BACKWARD produce parameter
      gradients that need aggregation when the op is data-parallel.
    - ``output``: the (single) output tensor spec.
    - ``attrs``: free-form attributes (e.g. kernel size, dilation) used by
      the profiler's regression features.
    """

    name: str
    op_type: str
    output: TensorSpec
    flops: float = 0.0
    param_bytes: int = 0
    phase: OpPhase = OpPhase.FORWARD
    layer: Optional[str] = None
    attrs: dict = field(default_factory=dict)
    # For BACKWARD ops: name of the forward op this op differentiates.
    forward_ref: Optional[str] = None
    # Whether the op's *compute* scales with the batch share.  Defaults to
    # "output has a batch dimension"; parameter-gradient ops (Conv2DBpFilter,
    # MatMulBpParam, ...) override this to True: their output is a full-size
    # gradient tensor, but each data-parallel replica only processes its
    # slice of the batch.
    batch_scaled: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.batch_scaled is None:
            self.batch_scaled = self.output.batch_dim is not None
        if not self.name:
            raise ValueError("operation name must be non-empty")
        if self.flops < 0:
            raise ValueError(f"op {self.name}: negative flops")
        if self.param_bytes < 0:
            raise ValueError(f"op {self.name}: negative param_bytes")
        if self.op_type in UNBATCHED_OP_TYPES and self.output.batch_dim is not None:
            raise ValueError(
                f"op {self.name}: type {self.op_type} must not have a batch dim"
            )

    @property
    def is_replicable(self) -> bool:
        """Whether the op can be data-parallel replicated.

        Sec. 5: ops whose work does not scale with the batch (VariableRead,
        ApplyGradient, scalars) are never replicated; ops processing a batch
        slice are, even when their *output* lacks the batch dimension (e.g.
        Conv2DBpFilter produces a full-size parameter gradient per replica).
        """
        return bool(self.batch_scaled)

    @property
    def produces_param_gradient(self) -> bool:
        return self.phase is OpPhase.BACKWARD and self.param_bytes > 0

    def scaled_flops(self, batch_fraction: float) -> float:
        """FLOPs when processing ``batch_fraction`` of the mini-batch."""
        if not self.batch_scaled:
            return self.flops
        return self.flops * batch_fraction

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Operation({self.name!r}, {self.op_type}, out={self.output.shape}, "
            f"flops={self.flops:.3g}, params={self.param_bytes})"
        )
