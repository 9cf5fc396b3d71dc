"""Stochastic spiking-network toolkit.

Exact synchronous simulation of integer-weight stochastic threshold
networks, constructions for random-access indexing and similarity testing,
recurrent-to-feedforward unrolling with threshold-circuit derandomization,
and small-instance dichotomy/VC counting.
"""

from .dynamics import default_lambda, firing_probability, potential, run, run_schedule, step
from .model import (
    Kind, Network, NetworkBuilder, Neuron, Polarity, Synapse, Violation, validate,
)
from .bits import binary, dec

__version__ = "0.1.0"

__all__ = [
    "Kind", "Network", "NetworkBuilder", "Neuron", "Polarity", "Synapse",
    "Violation", "validate", "default_lambda", "firing_probability",
    "potential", "run", "run_schedule", "step",
    "binary", "dec", "__version__",
]
