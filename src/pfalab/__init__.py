"""Simulation laboratory for persistent table faults in AES-128.

The package models a table-based AES implementation whose substitution
table can be persistently corrupted, the ciphertext-only key recovery
that such corruption enables, two classical redundancy countermeasures
(dual modular redundancy and byte scrambling), and a cheaper guard that
detects faults with a checkpointed lookup chain and repairs them by
majority vote over parity-linked neighbours.
"""

from .aes import (
    BLOCK_SIZE,
    block_from_hex,
    block_to_hex,
    decrypt,
    decrypt_blocks,
    encrypt,
    encrypt_blocks,
    inverse_key_expand,
    key_expand,
)
from .attack import (
    CiphertextHistogram,
    FaultSearchResult,
    KeyRecoveryResult,
    accumulate,
    estimate_residual_keyspace,
    min_ciphertexts_to_recover,
    recover_key_maxmin,
    search_fault_values,
)
from .classic import (
    DmrConfig,
    bs_encrypt_blocks,
    dmr_encrypt_blocks,
)
from .costs import CostBound, cost_of, savings_ratio
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    emit_table3,
    run_experiment,
    run_trial,
    write_run,
)
from .faults import (
    FaultSpec,
    InvalidFault,
    PlacementInfeasible,
    classify_case,
    inject,
    random_faults,
)
from .guard import (
    CorrectionReport,
    GuardConfig,
    correct,
    detect,
    precorrect_table,
)
from .rng import RNG_ALGORITHM, Rng, derive_seed
from .sbox import AES_INV_SBOX, AES_SBOX, NotAPermutation, SBoxTable
from .sbox_analysis import (
    CycleDecomposition,
    DetectionPair,
    RedundantTables,
    SeedAllocation,
    allocate_seeds,
    analyze_table,
    build_detection_pair,
    build_redundant_tables,
    cycle_decompose,
    verify_detection,
)

__version__ = "0.1.0"
