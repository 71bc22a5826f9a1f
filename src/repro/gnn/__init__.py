"""Neural-network substrate: layers, losses, optimizers and GNN models with
explicit numpy forward/backward passes (stand-in for PyTorch/PyG)."""

from .activations import ACTIVATIONS, Identity, ReLU, make_activation
from .checkpoint import load_model_into, save_model
from .layers import GCNConv, SAGEConv, glorot
from .loss import softmax, softmax_cross_entropy
from .metrics import accuracy
from .model import GNNModel, full_graph_sample, propagation_flops
from .optim import Adam

__all__ = [
    "ACTIVATIONS",
    "ReLU",
    "Identity",
    "make_activation",
    "SAGEConv",
    "GCNConv",
    "save_model",
    "load_model_into",
    "glorot",
    "softmax",
    "softmax_cross_entropy",
    "accuracy",
    "GNNModel",
    "full_graph_sample",
    "propagation_flops",
    "Adam",
]
