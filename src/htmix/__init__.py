"""Heavy-tailed mixture laws.

Exact samplers for stable, Mittag-Leffler, and Linnik type families built
from mixture representations, the analytic special functions behind them,
a registry of distributional identities with Monte-Carlo verification, and
convergence experiments for random-sum limit theorems.
"""

from . import distributions, identities, limits, special, streams, verification
from .distributions import (
    DistSpec,
    FAMILIES,
    METHODS,
    SampleBatch,
    analytic_cf,
    analytic_lst,
    sample,
)
from .errors import AccuracyError, DomainError, UnsupportedRegimeError
from .limits import (
    ConvergenceReport,
    LimitExperiment,
    run_experiment,
    run_lemma14,
    run_thm6,
    run_thm7,
    run_thm8,
)
from .special import (
    Accuracy,
    InversionCdf,
    cdf_by_inversion,
    genlinnik_cf,
    genml_lst,
    gg_density,
    gleser_mixing_density,
    mittag_leffler,
    ml_cdf,
    ml_density,
    pdf_by_inversion,
    snedecor_fisher_density,
    stable_ratio_density,
)
from .streams import DEFAULT_SEED, RandomStream
from .verification import (
    MetricEntry,
    VerificationReport,
    ecf_distance,
    hill_tail_index,
    ks_one_sample,
    ks_two_sample,
    lst_distance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "distributions",
    "identities",
    "limits",
    "special",
    "streams",
    "verification",
    "AccuracyError",
    "DomainError",
    "UnsupportedRegimeError",
    "DEFAULT_SEED",
    "RandomStream",
    "Accuracy",
    "InversionCdf",
    "cdf_by_inversion",
    "genlinnik_cf",
    "genml_lst",
    "gg_density",
    "gleser_mixing_density",
    "mittag_leffler",
    "ml_cdf",
    "ml_density",
    "pdf_by_inversion",
    "snedecor_fisher_density",
    "stable_ratio_density",
    "DistSpec",
    "FAMILIES",
    "METHODS",
    "SampleBatch",
    "analytic_cf",
    "analytic_lst",
    "sample",
    "MetricEntry",
    "VerificationReport",
    "ecf_distance",
    "hill_tail_index",
    "ks_one_sample",
    "ks_two_sample",
    "lst_distance",
    "ConvergenceReport",
    "LimitExperiment",
    "run_experiment",
    "run_lemma14",
    "run_thm6",
    "run_thm7",
    "run_thm8",
]
