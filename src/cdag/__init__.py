"""Colored Gaussian DAG models.

Graphs with partial-homogeneity constraints on error variances (vertex
colors) and structural coefficients (edge colors): exact parametrization and
parameter recovery, Markov-property and model-equivalence checking, maximum
likelihood with a decomposable score, greedy edge-colored causal discovery,
and a synthetic benchmark harness.
"""

from .bench import color_sensitivity, random_bpec, run_sweep, sample, shd
from .coloring import ColoredDag, read_graph_json, uncolored, write_graph_json
from .constraints import (RelationPoly, check_global_markov, check_local_markov,
                          faithfulness_scan, local_generators, model_equivalent)
from .dag import Dag
from .errors import (CdagError, ColoringError, GraphError,
                     NotPositiveDefiniteError, RankDeficientError,
                     SearchBudgetError, SizeGuardError)
from .fit import Dataset, bic_score, fit_families, mle
from .gecs import GecsSearch, SearchState, baseline_greedy, gecs
from .identify import identifying_sets, is_identifying
from .params import (ModelParams, almost_principal_minor, minor, parametrize,
                     random_params, recover_lambda, recover_omega,
                     recover_params)

__version__ = "0.1.0"

__all__ = [
    "CdagError", "ColoredDag", "ColoringError", "Dag", "Dataset",
    "GecsSearch", "GraphError", "ModelParams", "NotPositiveDefiniteError",
    "RankDeficientError", "RelationPoly", "SearchBudgetError", "SearchState",
    "SizeGuardError",
    "almost_principal_minor", "baseline_greedy", "bic_score",
    "check_global_markov", "check_local_markov", "color_sensitivity",
    "faithfulness_scan", "fit_families", "gecs", "identifying_sets",
    "is_identifying", "local_generators", "minor", "mle", "model_equivalent",
    "parametrize", "random_bpec", "random_params", "read_graph_json",
    "recover_lambda", "recover_omega", "recover_params", "run_sweep", "sample",
    "shd", "uncolored", "write_graph_json",
]
