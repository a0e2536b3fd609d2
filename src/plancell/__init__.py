"""Plan indexing toolkit: from project graphs to cellular classification.

The pipeline: enumerate the plans of an AND/OR project graph, build a
corpus of solved planning runs, discretize its numeric attributes, grow a
decision tree over it, compile the tree into a boolean cellular rule base,
and classify new runs either by walking the tree or by iterating the
cellular automaton; a k-nearest-neighbor baseline and a stratified
cross-validation harness complete the comparison loop.
"""

from .blocksworld import (Action, BlockState, CorpusRun, SolveResult,
                          all_on_table, apply, corpus_training_set,
                          generate_corpus, generate_runs, solve, validate_plan)
from .casi import (CellularKnowledgeBase, ClassificationRule, Configuration,
                   classify_casi, compile_tree, established_facts,
                   format_fact_table, format_incidence, format_rule_table,
                   infer, instance_facts, kb_from_json, kb_to_json)
from .dataset import (AttributeSpec, Instance, TrainingSet,
                      build_training_set, class_distribution, load_csv,
                      save_csv, subset)
from .discretize import (DiscretizationMap, Schema, apply_map,
                         discretize_supervised, discretize_unsupervised,
                         entropy, fit_map)
from .errors import (DataError, InapplicableActionError, LimitError,
                     ModelError, ModelIntegrityError, PlancellError,
                     UnknownValueError)
from .evaluation import (EvalReport, FoldPlan, cross_validate, evaluate_grid,
                         make_folds, report, report_csv)
from .knn import KnnModel, classify_knn, fit_knn
from .plans import Plan, PlanEnumeration, enumerate_plans, first_plan
from .project import ProjectGraph, ProjectParseError, Task, parse_project
from .sample_data import sample_project, sample_runs
from .tree import (InductionGraph, TreeNode, classify_tree, gain_ratio, grow,
                   induce, information_gain, model_from_json, model_to_json,
                   rep_prune)

__version__ = "0.1.0"

__all__ = [
    "Action", "AttributeSpec", "BlockState", "CellularKnowledgeBase",
    "ClassificationRule", "Configuration", "CorpusRun", "DataError",
    "DiscretizationMap", "EvalReport", "FoldPlan", "InapplicableActionError",
    "InductionGraph", "Instance", "KnnModel", "LimitError", "ModelError",
    "ModelIntegrityError", "Plan", "PlanEnumeration", "PlancellError",
    "ProjectGraph", "ProjectParseError", "Schema", "SolveResult", "Task",
    "TrainingSet", "TreeNode", "UnknownValueError", "all_on_table", "apply",
    "apply_map", "build_training_set", "class_distribution", "classify_casi",
    "classify_knn", "classify_tree", "compile_tree", "corpus_training_set",
    "cross_validate", "discretize_supervised", "discretize_unsupervised",
    "entropy", "enumerate_plans", "established_facts", "evaluate_grid",
    "first_plan", "fit_knn", "fit_map", "format_fact_table",
    "format_incidence", "format_rule_table", "gain_ratio", "generate_corpus",
    "generate_runs", "grow", "induce", "infer", "information_gain",
    "instance_facts", "kb_from_json", "kb_to_json", "load_csv", "make_folds",
    "model_from_json", "model_to_json", "parse_project", "rep_prune", "report",
    "report_csv", "sample_project", "sample_runs", "save_csv", "solve",
    "subset", "validate_plan",
]
