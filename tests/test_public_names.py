"""The package's public surface, listed name by name.

A name is public when it does not start with an underscore.  The lists are
the names `expanderlab` itself binds (its modules aside), its modules, and
the names each module defines at top level: its functions, classes and
assigned constants, read off the module's source, so a name it imports
from another module is not counted twice.  Adding, renaming or removing
one fails here until the list is updated, so the surface changes only on
purpose.
"""
import ast
import pkgutil
import types
from pathlib import Path

import expanderlab

EXPORTS = {
    "CoverResult", "EnergyValue", "ExtremalRecord", "FAILS", "FSet", "FieldCtx", "HOLDS",
    "INCONCLUSIVE", "InequalityReport", "InjectionResult", "Instance", "Line",
    "MultiplicityHistogram", "PairGraph", "PartialTriangleResult", "PipelineTrace",
    "PlunneckeResult", "PopularRatioResult", "REGISTRY", "RatInterval", "SLACK_ONLY",
    "SearchConfig", "additive_energy", "affine_image", "check", "combine", "count_incidences",
    "dense_degree_subset", "energy", "exhaustive_min", "expander_set", "exponent_table",
    "finite_field_pipeline", "greedy_cover", "histogram", "injection_witness", "is_prime",
    "kfold_size", "load_set", "log_ratio_interval", "multiplicative_energy", "partial_combine",
    "partial_ruzsa", "plunnecke_witness", "popular_ratio_graph", "pow_interval",
    "real_pipeline", "rich_products", "root_interval", "save_set", "st_lower_bound_check",
    "stochastic_search", "sumset_size", "twisted_energy",
}

MODULES = {
    "cli": {
        "EXIT_BUDGET", "EXIT_FAILS", "EXIT_INCONCLUSIVE", "EXIT_OK", "EXIT_USAGE",
        "build_parser", "cmd_energy", "cmd_pipeline", "cmd_replay", "cmd_search", "cmd_verify",
        "main",
    },
    "constructions": {
        "CoverResult", "InjectionResult", "PartialTriangleResult", "PlunneckeResult",
        "PopularRatioResult", "dense_degree_subset", "ge_one_minus_k_sqrt", "greedy_cover",
        "gt_k_sqrt", "injection_witness", "partial_ruzsa", "plunnecke_witness",
        "popular_ratio_graph",
    },
    "energy": {
        "EnergyValue", "HIST_KINDS", "MultiplicityHistogram", "ORACLE_LIMIT_DEFAULT",
        "PRECISION_CAP_DEFAULT", "PRECISION_CAP_ENV", "PRECISION_START", "additive_energy",
        "additive_energy_bruteforce", "e2", "energy", "energy_at", "histogram",
        "multiplicative_energy", "multiplicative_energy_bruteforce", "precision_cap",
        "rich_products", "twist_spectrum", "twist_witness", "twisted_energy",
    },
    "errors": {
        "AlphaOutOfRange", "BudgetExceeded", "CollisionFound", "ContextMismatch",
        "DensityViolated", "DivisionByZero", "DuplicateInput", "EpsilonOutOfRange",
        "ExpanderlabError", "FieldMismatch", "GraphTooSparse", "InvalidGraphEdge",
        "InvalidKernelArgument", "InvalidManifest", "InvalidPrecisionCap", "InvalidSearchConfig",
        "InvalidSetFile", "InvariantViolation", "MissingModulus", "NonPrimeModulus",
        "PrecisionCapExceeded", "SetTooSmall", "SideConditionViolated", "TOutOfRange",
        "TooManySets", "UnknownRelation", "WitnessFailure", "ZeroDilation", "ZeroElementPresent",
        "ZeroTwist",
    },
    "field": {"ElemLike", "FieldCtx", "KIND_PRIME", "KIND_RATIONAL", "RawValue", "is_prime"},
    "incidence": {"Line", "Point", "StLowerBoundResult", "count_incidences",
                  "st_lower_bound_check"},
    "intervals": {
        "Rat", "RatInterval", "fraction_to_decimal", "interval_to_decimal", "iroot_floor",
        "log2_interval", "log_ratio_interval", "pow_interval", "root_interval",
    },
    "search": {
        "COOLING", "CSV_COLUMNS", "ExtremalRecord", "INITIAL_TEMP", "MODES", "SearchConfig",
        "candidate_pool", "exhaustive_min", "expander_size", "exponent_table", "reevaluate",
        "stochastic_search", "write_csv",
    },
    "sets": {
        "COMBINE_OPS", "Combination", "DiscreteLog", "FSet", "KERNELS", "KERNEL_COSTS",
        "LOG_MASK_OPS", "LOG_TABLE_PRIMES", "PairGraph", "affine_image", "choose", "combine",
        "dilate", "discrete_log", "expander_set", "kfold_size", "load_set", "log_mask",
        "negate", "partial_combine", "partial_diff_size", "save_set", "sumset_size",
        "translate",
    },
    "verify": {
        "FAILS", "HOLDS", "INCONCLUSIVE", "InequalityReport", "Instance", "PLUNNECKE_BUDGET",
        "PipelineStep", "PipelineTrace", "REGISTRY", "RelationSpec", "ReportValue", "SLACK_KEYS",
        "SLACK_ONLY", "check", "finite_field_pipeline", "instance_digest", "real_pipeline",
    },
}


def defined_names(source: str) -> set:
    """The public names a module's source binds at top level by def, class
    or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def test_the_package_exports_the_listed_names():
    exported = {name for name, value in vars(expanderlab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTS


def test_each_module_defines_the_listed_names():
    home = Path(expanderlab.__file__).parent
    modules = {m.name for m in pkgutil.iter_modules([str(home)])}
    assert modules == set(MODULES)
    for name, listed in MODULES.items():
        assert defined_names((home / f"{name}.py").read_text(encoding="utf-8")) == listed, name


def test_every_export_is_defined_by_a_module():
    defined = set().union(*MODULES.values())
    assert EXPORTS <= defined
