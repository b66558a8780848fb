"""Zero- and few-shot category recognition from mined attribute knowledge.

Pipeline: mine category-attribute relatedness from text (or take curated
associations), train per-attribute classifiers on known categories, score
novel categories through their attribute signatures, then optionally
refine with label propagation over an instance similarity graph.
"""

from .core import (
    AssociationMatrix,
    AttributeScoreMatrix,
    CategoryScoreMatrix,
    DatasetSplit,
    FeatureMatrix,
    LabelledMatrix,
    ParseError,
    RelatednessMatrix,
    ValidationError,
    clean_identifier,
    validate_split,
)
from .relatedness import (
    CorpusIndex,
    Taxonomy,
    binarize,
    build_corpus_index,
    dice_hitcount,
    dice_snippet,
    esa_relatedness,
    lin_relatedness,
    mine_relatedness,
    tokenize,
)
from .classify import (
    AttributeModel,
    TrainConfig,
    logistic_loss_and_grad,
    predict_attribute_scores,
    train_attribute_classifiers,
)
from .transfer import (
    AttributePrior,
    attribute_prior_from_associations,
    dap_scores,
    direct_similarity_scores,
    hierarchy_transfer,
)
from .propagate import (
    PropagationConfig,
    PropagationResult,
    SeedLabels,
    SimilarityGraph,
    build_knn_graph,
    clamp_fewshot,
    propagate,
    propagate_closed_form,
    pst,
    seed_from_zeroshot,
)
from .metrics import (
    EvalReport,
    average_precision,
    evaluate_zero_shot,
    mean_ap,
    multiclass_accuracy,
    roc_auc,
)
from .synth import (
    CorpusPlan,
    SynthConfig,
    SynthDataset,
    corpus_plan_from_associations,
    gen_corpus,
    gen_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationMatrix", "AttributeScoreMatrix", "CategoryScoreMatrix",
    "DatasetSplit", "FeatureMatrix", "LabelledMatrix", "ParseError",
    "RelatednessMatrix", "ValidationError", "clean_identifier", "validate_split",
    "CorpusIndex", "Taxonomy", "binarize", "build_corpus_index",
    "dice_hitcount", "dice_snippet", "esa_relatedness",
    "lin_relatedness", "mine_relatedness", "tokenize",
    "AttributeModel", "TrainConfig", "logistic_loss_and_grad",
    "predict_attribute_scores", "train_attribute_classifiers",
    "AttributePrior", "attribute_prior_from_associations", "dap_scores",
    "direct_similarity_scores", "hierarchy_transfer",
    "PropagationConfig", "PropagationResult", "SeedLabels",
    "SimilarityGraph", "build_knn_graph", "clamp_fewshot", "propagate",
    "propagate_closed_form", "pst", "seed_from_zeroshot",
    "EvalReport", "average_precision", "evaluate_zero_shot", "mean_ap",
    "multiclass_accuracy", "roc_auc",
    "CorpusPlan", "SynthConfig", "SynthDataset",
    "corpus_plan_from_associations", "gen_corpus", "gen_dataset",
    "__version__",
]
