"""Hierarchical graph-neural recommender for occasional groups."""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    InteractionDataset,
    SplitSpec,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_interactions,
)
from .evaluation import EvalReport, evaluate, pop_baseline, rank_items  # noqa: F401
from .graph import Hypergraph, SocialGraph, build_hypergraph, build_social_graph, sample_neighbors  # noqa: F401
from .model import ModelConfig, ModelParams, initialize_params, load_params, save_params  # noqa: F401
from .training import TrainConfig, TrainReport, train  # noqa: F401
