"""Simulation laboratory for persistent table faults in AES-128.

The package models a table-based AES implementation whose substitution
table can be persistently corrupted, the ciphertext-only key recovery
that such corruption enables, two classical redundancy countermeasures
(dual modular redundancy and byte scrambling), and a cheaper guard that
detects faults with a checkpointed lookup chain and repairs them by
majority vote over parity-linked neighbours.
"""

from .rng import RNG_ALGORITHM

__version__ = "0.1.0"
