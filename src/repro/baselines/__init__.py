"""Baselines: the four DP schemes and the related-work systems of Fig. 9."""

from .dp import DP_BASELINES, dp_strategy
from .flexflow import FlexFlowSearch, flexflow_strategy
from .hetpipe import hetpipe_strategy, virtual_workers
from .horovod import horovod_strategy
from .post import PostSearch, post_strategy

__all__ = [
    "DP_BASELINES",
    "dp_strategy",
    "horovod_strategy",
    "flexflow_strategy",
    "FlexFlowSearch",
    "hetpipe_strategy",
    "virtual_workers",
    "post_strategy",
    "PostSearch",
]
