"""Total least squares for errors-in-variables regression with weakly
dependent errors, plus the simulation machinery to verify its asymptotics
and block-bootstrap confidence intervals.
"""

__version__ = "0.1.0"

from .bootstrap import BootstrapCi, BootstrapConfig, block_bootstrap_ci, choose_block_length
from .estimator import (
    GramFits,
    TlsFit,
    ols_fit,
    ols_from_gram,
    tls_fit,
    tls_from_gram,
)
from .mixing import (
    AssumptionReport,
    FiniteJoint,
    alpha_between,
    check_assumptions,
    phi_between,
)
from .model import (
    DesignSpec,
    EivInstance,
    build_design,
    expected_cross_product,
    repeating_block,
    score_sequence,
    sinusoidal,
    synthesize,
)
from .montecarlo import (
    ConsistencyReport,
    ExperimentConfig,
    ExperimentReport,
    LongRunReport,
    NormalityExperimentReport,
    derive_subseed,
    run_consistency,
    run_long_run_check,
    run_normality,
)
from .processes import (
    ErrorMatrixSpec,
    ErrorProcessSpec,
    ar1,
    generate_error_matrix,
    generate_sequence,
    iid_gaussian,
    ma,
    map_draws,
)
from .stats import (
    CltCheckReport,
    NormalityReport,
    clt_check,
    ks_statistic,
    long_run_variance,
    mardia_tests,
    normality_battery,
)
