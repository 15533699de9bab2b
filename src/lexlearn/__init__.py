"""lexlearn: learn word-level affect ratings from document-labeled corpora,
evaluate the resulting lexica, and partition them into signed clusters."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Corpus,
    Document,
    build_corpus,
    load_corpus,
    tokenize,
)
from .embeddings import EmbeddingTable, centroid, load_embeddings  # noqa: F401
from .errors import LexlearnError  # noqa: F401
from .induction import (  # noqa: F401
    Lexicon,
    MethodSpec,
    fit_mean_binary,
    fit_mean_star,
    fit_method,
    fit_mlffn,
    fit_regression_weights,
    load_lexicon,
    rescale_log_minmax,
    save_lexicon,
)
from .neural import FeedForwardNet, NetConfig, train  # noqa: F401
from .numerics import RidgeModel, kmeans, pearson, ridge_fit, sym_eig_smallest  # noqa: F401
from .evaluation import (  # noqa: F401
    EvalReport,
    Users,
    eval_extrinsic,
    eval_intrinsic,
    load_gold_lexicon,
    load_user_corpora,
)
from .clustering import (  # noqa: F401
    ClusterResult,
    SignedGraph,
    build_signed_graph,
    cluster,
    save_clusters,
    signed_laplacian,
)
