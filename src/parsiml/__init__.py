"""Binary-state phylogenetics engine with an inequality verifier.

Exact flip-count scoring and likelihood evaluation on small unrooted trees,
exhaustive searches over topologies, constant-site padding, and numerical
checks of the inequalities that tie the two objectives together.
"""

from parsiml.characters import (Character, DataMatrix, MatrixFormatError,
                                PaddedInstance, PaddingCapError, is_constant,
                                pad_constant_sites, pad_with_count,
                                parse_matrix, random_instance, write_matrix)
from parsiml.likelihood import (EdgeProbs, char_likelihood_exhaustive,
                                char_likelihood_pruning, modified_loglik,
                                parse_probs, pattern_likelihoods,
                                write_probs)
from parsiml.mlopt import MLResult, OptimizerConfig, ml_search, optimize_edges
from parsiml.parsimony import (brute_force_score, fitch_score, mp_search,
                               parsimony_score)
from parsiml.reduction import (ReductionQuantities, VerifierReport,
                               quantities_for, verify_claim1, verify_claim2,
                               verify_claim3, verify_prop1_chain)
from parsiml.trees import (NewickError, TopologyCapError, Tree,
                           canonical_newick, enumerate_topologies,
                           parse_newick, topology_count)

__version__ = "0.1.0"

__all__ = [
    "Character", "DataMatrix", "MatrixFormatError", "PaddedInstance",
    "PaddingCapError", "is_constant", "pad_constant_sites",
    "pad_with_count", "parse_matrix", "random_instance", "write_matrix",
    "EdgeProbs", "char_likelihood_exhaustive", "char_likelihood_pruning",
    "modified_loglik", "parse_probs", "pattern_likelihoods", "write_probs",
    "MLResult", "OptimizerConfig", "ml_search", "optimize_edges",
    "brute_force_score", "fitch_score", "mp_search", "parsimony_score",
    "ReductionQuantities", "VerifierReport", "quantities_for",
    "verify_claim1", "verify_claim2", "verify_claim3", "verify_prop1_chain",
    "NewickError", "TopologyCapError", "Tree", "canonical_newick",
    "enumerate_topologies", "parse_newick", "topology_count",
    "__version__",
]
