"""Helpers for constructing forward graphs and deriving training graphs.

Model builders (``repro.graph.models``) use :class:`GraphBuilder` to lay
down forward operations with realistic shapes/FLOPs, then call
:func:`build_training_graph` which mirrors the forward DAG with backward
(gradient) operations and per-parameter ApplyGradient ops — the same
structure TensorFlow's graphdef exposes to HeteroG's Graph Analyzer.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import GraphError
from .dag import ComputationGraph
from .op import DTYPE_BYTES, Operation, OpPhase, TensorSpec

# Backward op-type naming, matching the TensorFlow kernels the paper profiles
# (Fig. 3(b) plots Conv2DBpFilter / Conv2DBpInput explicitly).
_BACKWARD_INPUT_SUFFIX = "BpInput"
_BACKWARD_PARAM_SUFFIX = "BpFilter"


class GraphBuilder:
    """Incrementally builds the *forward* part of a computation DAG."""

    def __init__(self, name: str, batch_size: int):
        if batch_size <= 0:
            raise GraphError(f"batch size must be positive, got {batch_size}")
        self.graph = ComputationGraph(name)
        self.batch_size = batch_size
        self._counter: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # naming
    # ------------------------------------------------------------------ #
    def _fresh(self, kind: str) -> str:
        idx = self._counter.get(kind, 0)
        self._counter[kind] = idx + 1
        return f"{kind.lower()}_{idx}"

    # ------------------------------------------------------------------ #
    # generic node insertion
    # ------------------------------------------------------------------ #
    def add(
        self,
        op_type: str,
        output: TensorSpec,
        inputs: Sequence[str] = (),
        *,
        name: Optional[str] = None,
        flops: float = 0.0,
        param_bytes: int = 0,
        layer: Optional[str] = None,
        attrs: Optional[dict] = None,
    ) -> str:
        op = Operation(
            name=name or self._fresh(op_type),
            op_type=op_type,
            output=output,
            flops=flops,
            param_bytes=param_bytes,
            phase=OpPhase.FORWARD,
            layer=layer,
            attrs=attrs or {},
        )
        self.graph.add_op(op, inputs)
        return op.name

    # ------------------------------------------------------------------ #
    # layer helpers (shapes in NHWC / [batch, seq, hidden] convention)
    # ------------------------------------------------------------------ #
    def input(self, shape: Tuple[int, ...], name: str = "input") -> str:
        spec = TensorSpec((self.batch_size,) + tuple(shape))
        op = Operation(name, "Input", spec, phase=OpPhase.INPUT)
        self.graph.add_op(op)
        return name

    def conv2d(
        self,
        src: str,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        *,
        layer: Optional[str] = None,
        depthwise: bool = False,
        name: Optional[str] = None,
    ) -> str:
        in_spec = self.graph.op(src).output
        if len(in_spec.shape) != 4:
            raise GraphError(f"conv2d expects NHWC input, got {in_spec.shape}")
        batch, height, width, in_ch = in_spec.shape
        out_h = max(1, math.ceil(height / stride))
        out_w = max(1, math.ceil(width / stride))
        out = TensorSpec((batch, out_h, out_w, out_channels))
        if depthwise:
            # depthwise conv: one filter per input channel
            flops = 2.0 * batch * out_h * out_w * kernel * kernel * in_ch
            params = kernel * kernel * in_ch * DTYPE_BYTES
            op_type = "DepthwiseConv2D"
        else:
            flops = 2.0 * batch * out_h * out_w * kernel * kernel * in_ch * out_channels
            params = kernel * kernel * in_ch * out_channels * DTYPE_BYTES
            op_type = "Conv2D"
        return self.add(
            op_type,
            out,
            [src],
            name=name,
            flops=flops,
            param_bytes=params,
            layer=layer,
            attrs={"kernel": kernel, "stride": stride, "in_channels": in_ch},
        )

    def conv1d(
        self,
        src: str,
        out_channels: int,
        kernel: int = 3,
        *,
        layer: Optional[str] = None,
        name: Optional[str] = None,
    ) -> str:
        in_spec = self.graph.op(src).output
        if len(in_spec.shape) != 3:
            raise GraphError(f"conv1d expects [B, L, C] input, got {in_spec.shape}")
        batch, length, in_ch = in_spec.shape
        out = TensorSpec((batch, length, out_channels))
        flops = 2.0 * batch * length * kernel * in_ch * out_channels
        params = kernel * in_ch * out_channels * DTYPE_BYTES
        return self.add(
            "Conv1D",
            out,
            [src],
            name=name,
            flops=flops,
            param_bytes=params,
            layer=layer,
            attrs={"kernel": kernel, "in_channels": in_ch},
        )

    def dense(
        self,
        src: str,
        units: int,
        *,
        layer: Optional[str] = None,
        name: Optional[str] = None,
    ) -> str:
        in_spec = self.graph.op(src).output
        in_features = in_spec.shape[-1]
        rows = in_spec.num_elements // in_features
        out = TensorSpec(in_spec.shape[:-1] + (units,), in_spec.batch_dim)
        flops = 2.0 * rows * in_features * units
        params = (in_features * units + units) * DTYPE_BYTES
        return self.add(
            "MatMul",
            out,
            [src],
            name=name,
            flops=flops,
            param_bytes=params,
            layer=layer,
            attrs={"in_features": in_features, "units": units},
        )

    def embedding(
        self,
        src: str,
        vocab: int,
        hidden: int,
        *,
        layer: Optional[str] = None,
        name: Optional[str] = None,
    ) -> str:
        """Embedding lookup — huge parameter table, tiny compute."""
        in_spec = self.graph.op(src).output
        out = TensorSpec(in_spec.shape + (hidden,), in_spec.batch_dim)
        params = vocab * hidden * DTYPE_BYTES
        flops = float(out.num_elements)  # gather cost proxy
        return self.add(
            "Embedding",
            out,
            [src],
            name=name,
            flops=flops,
            param_bytes=params,
            layer=layer,
            attrs={"vocab": vocab, "hidden": hidden},
        )

    def pool(self, src: str, stride: int = 2, *, kind: str = "MaxPool",
             layer: Optional[str] = None, name: Optional[str] = None) -> str:
        in_spec = self.graph.op(src).output
        batch, height, width, ch = in_spec.shape
        out = TensorSpec(
            (batch, max(1, height // stride), max(1, width // stride), ch)
        )
        flops = float(in_spec.num_elements)
        return self.add(kind, out, [src], name=name, flops=flops, layer=layer,
                        attrs={"stride": stride})

    def global_pool(self, src: str, *, layer: Optional[str] = None,
                    name: Optional[str] = None) -> str:
        in_spec = self.graph.op(src).output
        batch = in_spec.shape[0]
        ch = in_spec.shape[-1]
        out = TensorSpec((batch, ch))
        return self.add("AvgPool", out, [src], name=name,
                        flops=float(in_spec.num_elements), layer=layer)

    def activation(self, src: str, *, kind: str = "Relu",
                   layer: Optional[str] = None, name: Optional[str] = None) -> str:
        spec = self.graph.op(src).output
        return self.add(kind, spec, [src], name=name,
                        flops=float(spec.num_elements), layer=layer)

    def batch_norm(self, src: str, *, layer: Optional[str] = None,
                   name: Optional[str] = None) -> str:
        spec = self.graph.op(src).output
        params = 2 * spec.shape[-1] * DTYPE_BYTES
        return self.add("BatchNorm", spec, [src], name=name,
                        flops=4.0 * spec.num_elements, param_bytes=params,
                        layer=layer)

    def layer_norm(self, src: str, *, layer: Optional[str] = None,
                   name: Optional[str] = None) -> str:
        spec = self.graph.op(src).output
        params = 2 * spec.shape[-1] * DTYPE_BYTES
        return self.add("LayerNorm", spec, [src], name=name,
                        flops=5.0 * spec.num_elements, param_bytes=params,
                        layer=layer)

    def add_n(self, srcs: Sequence[str], *, layer: Optional[str] = None,
              name: Optional[str] = None) -> str:
        specs = [self.graph.op(s).output for s in srcs]
        if len({s.shape for s in specs}) != 1:
            raise GraphError(
                f"add_n requires matching shapes, got {[s.shape for s in specs]}"
            )
        return self.add("AddN", specs[0], srcs, name=name,
                        flops=float(specs[0].num_elements * len(srcs)),
                        layer=layer)

    def concat(self, srcs: Sequence[str], *, layer: Optional[str] = None,
               name: Optional[str] = None) -> str:
        specs = [self.graph.op(s).output for s in srcs]
        last = sum(s.shape[-1] for s in specs)
        out = TensorSpec(specs[0].shape[:-1] + (last,), specs[0].batch_dim)
        return self.add("ConcatV2", out, srcs, name=name,
                        flops=float(out.num_elements), layer=layer)

    def self_attention(
        self,
        src: str,
        heads: int,
        *,
        layer: Optional[str] = None,
    ) -> str:
        """Multi-head self-attention block (QKV projections + attention + out)."""
        in_spec = self.graph.op(src).output
        batch, seq, hidden = in_spec.shape
        qkv = self.dense(src, 3 * hidden, layer=layer,
                         name=self._fresh(f"{layer}_qkv" if layer else "qkv"))
        attn_flops = 2.0 * batch * heads * seq * seq * (hidden // max(1, heads)) * 2
        attn = self.add(
            "BatchMatMul",
            TensorSpec((batch, seq, hidden)),
            [qkv],
            name=self._fresh(f"{layer}_attn" if layer else "attn"),
            flops=attn_flops,
            layer=layer,
            attrs={"heads": heads},
        )
        soft = self.add(
            "Softmax",
            TensorSpec((batch, seq, hidden)),
            [attn],
            name=self._fresh(f"{layer}_softmax" if layer else "softmax"),
            flops=3.0 * batch * heads * seq * seq,
            layer=layer,
        )
        out = self.dense(soft, hidden, layer=layer,
                         name=self._fresh(f"{layer}_attnout" if layer else "attnout"))
        return out

    def softmax_loss(self, src: str, classes: int, name: str = "loss") -> str:
        in_spec = self.graph.op(src).output
        batch = in_spec.shape[0]
        logits = src
        if in_spec.shape[-1] != classes:
            logits = self.dense(src, classes, layer="classifier",
                                name="logits")
        op = Operation(
            name,
            "SoftmaxCrossEntropy",
            TensorSpec((batch,)),
            flops=4.0 * batch * classes,
            phase=OpPhase.LOSS,
            layer="loss",
        )
        self.graph.add_op(op, [logits])
        return name


def build_training_graph(builder: GraphBuilder) -> ComputationGraph:
    """Extend a forward graph in-place with BP and ApplyGradient ops.

    Mirrors the forward DAG: for every forward op ``f`` (reverse
    topological order) we add a gradient op chain; parameterized ops get a
    separate parameter-gradient op (``*BpFilter``) feeding an
    ``ApplyGradient`` op, exactly the pattern the paper's Fig. 7 shows.
    """
    graph = builder.graph
    loss_ops = graph.ops_in_phase(OpPhase.LOSS)
    if len(loss_ops) != 1:
        raise GraphError(
            f"training graph needs exactly one loss op, found {len(loss_ops)}"
        )

    order = graph.topological_order()
    grad_of: Dict[str, str] = {}  # forward op name -> its grad-input op name

    for fwd_name in reversed(order):
        fwd = graph.op(fwd_name)
        if fwd.phase not in (OpPhase.FORWARD, OpPhase.INPUT, OpPhase.LOSS):
            continue
        if fwd.phase is OpPhase.INPUT:
            continue  # no gradient flows into the input pipeline

        # Gradient comes from the grad ops of forward successors (or starts
        # at the loss).
        grad_inputs: List[str] = [
            grad_of[succ] for succ in graph.successors(fwd_name) if succ in grad_of
        ]
        if fwd.phase is OpPhase.LOSS:
            grad_inputs = []
        grad_inputs.append(fwd_name)  # activation needed for backward

        grad_name = f"{fwd_name}_grad"
        grad_type = (
            "LossGrad" if fwd.phase is OpPhase.LOSS
            else f"{fwd.op_type}{_BACKWARD_INPUT_SUFFIX}"
        )
        grad_op = Operation(
            name=grad_name,
            op_type=grad_type,
            output=fwd.output,  # activation-gradient size ~ activation size
            flops=fwd.flops,
            phase=OpPhase.BACKWARD,
            layer=fwd.layer,
            forward_ref=fwd_name,
        )
        graph.add_op(grad_op, grad_inputs)
        grad_of[fwd_name] = grad_name

        if fwd.param_bytes > 0:
            pgrad_name = f"{fwd_name}_pgrad"
            pgrad_op = Operation(
                name=pgrad_name,
                op_type=f"{fwd.op_type}{_BACKWARD_PARAM_SUFFIX}",
                # full-size parameter gradient; compute scales with batch
                output=TensorSpec(
                    (fwd.param_bytes // DTYPE_BYTES,), batch_dim=None
                ),
                flops=fwd.flops,
                param_bytes=fwd.param_bytes,
                phase=OpPhase.BACKWARD,
                layer=fwd.layer,
                forward_ref=fwd_name,
                batch_scaled=True,
            )
            graph.add_op(pgrad_op, [grad_name])

            apply_op = Operation(
                name=f"{fwd_name}_apply",
                op_type="ApplyGradient",
                output=TensorSpec((fwd.param_bytes // DTYPE_BYTES,),
                                  batch_dim=None),
                flops=2.0 * (fwd.param_bytes / DTYPE_BYTES),
                param_bytes=fwd.param_bytes,
                phase=OpPhase.APPLY,
                layer=fwd.layer,
                forward_ref=fwd_name,
            )
            graph.add_op(apply_op, [pgrad_name])

    graph.validate()
    return graph
