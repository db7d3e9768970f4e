"""Exact moments of noncommutative Brownian motions with multiple processes.

Core objects are (colored) pair partitions; moments are assembled from
extreme characters of the infinite symmetric group through a cycle-graph
statistic, cross-validated against explicit Fock-space oracles.
"""

from .partitions import (
    CapacityError,
    ColorArityError,
    ColoredPairPartition,
    PairPartition,
    crossings,
    double_factorial,
    enumerate_colored,
    enumerate_pair_partitions,
    noncrossing_hat,
    uncolored_cycles,
)
from .cyclegraph import CycleGraphAnalysis, build_graph, classify
from .moments import (
    ThomaParameter,
    fock_moment,
    t_colored,
    t_free,
    t_n,
    t_tensor,
    t_uncolored,
    thoma_character,
    thoma_n,
)
from .broken import (
    BrokenPairPartition,
    StandardForm,
    embed,
    empty,
    evaluate_t_hat,
    gram_blocks,
    gram_matrix,
    gram_psd_check,
    involution,
    left_hook,
    multiply,
    right_hook,
    standard_form,
    standard_form_product,
)
from .words import (
    Letter,
    Word,
    adjoint,
    annihilate,
    canonical_word,
    compatible_partitions,
    create,
    word,
    word_profile,
)
from .fock import (
    commutation_check,
    rho_n_combinatorial,
    vacuum_expectation_dense,
    vacuum_expectation_lambda,
    wlim_identity_check,
)
from .qproduct import (
    QMatrix,
    clt_error_bound,
    clt_error_curve,
    q_product_eval,
    stirling_check,
    t_q_limit,
    t_q_star_n,
)

__version__ = "0.1.0"
