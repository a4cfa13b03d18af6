"""Poisson matrix factorization for implicit-feedback count data.

Factorizes a sparse user-item count matrix as X ~ Poisson(A B^T) with
nonnegative factors under an identity link, using alternating updates of
the two factor matrices. The likelihood contribution of the zero entries
collapses to a dot product of factor column sums, so training cost scales
with the stored entries, never with m*n. Updates are either closed-form
proximal gradient steps or a nonnegative conjugate-gradient solver,
and the package ships data ingestion, a ranking evaluator, and a CLI.
"""

from .cli import (
    ModelMeta,
    load_model,
    main,
    recommend_for_user,
    save_model,
)
from .errors import (
    ConfigError,
    DataError,
    DataMismatchError,
    DegenerateModelError,
    EvaluationError,
    NumericFailureError,
    ParseError,
    PoisfactError,
)
from .evaluator import (
    EvalConfig,
    EvalReport,
    auc_user,
    evaluate,
    pearson_rho,
    precision_at_k,
    score_user,
    test_loglik,
)
from .poisson_core import (
    DOT_FLOOR,
    ClampStats,
    RegressionView,
    RegularizationSpec,
    full_objective,
    gradient_vector,
    objective_vector,
    prox_l1,
    prox_l2,
    prox_operator,
)
from .sparse_data import (
    IdMap,
    SparseInteractions,
    SplitPair,
    Triplets,
    build_interactions,
    parse_triplets,
    read_triplet_file,
    split_train_test,
    write_triplet_file,
)
from .trainer import (
    FactorModel,
    TrainConfig,
    TrainReport,
    init_factors,
    train,
)
from .vector_solvers import (
    SolverChoice,
    conj_grad_update,
    prox_grad_update,
)

__version__ = "0.1.0"

__all__ = [
    "ModelMeta",
    "load_model",
    "main",
    "recommend_for_user",
    "save_model",
    "ConfigError",
    "DataError",
    "DataMismatchError",
    "DegenerateModelError",
    "EvaluationError",
    "NumericFailureError",
    "ParseError",
    "PoisfactError",
    "EvalConfig",
    "EvalReport",
    "auc_user",
    "evaluate",
    "pearson_rho",
    "precision_at_k",
    "score_user",
    "test_loglik",
    "DOT_FLOOR",
    "ClampStats",
    "RegressionView",
    "RegularizationSpec",
    "full_objective",
    "gradient_vector",
    "objective_vector",
    "prox_l1",
    "prox_l2",
    "prox_operator",
    "IdMap",
    "SparseInteractions",
    "SplitPair",
    "Triplets",
    "build_interactions",
    "parse_triplets",
    "read_triplet_file",
    "split_train_test",
    "write_triplet_file",
    "FactorModel",
    "TrainConfig",
    "TrainReport",
    "init_factors",
    "train",
    "SolverChoice",
    "conj_grad_update",
    "prox_grad_update",
    "__version__",
]
