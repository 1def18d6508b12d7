"""dcpkit: exact privacy accounting for confounded secret/dataset models.

Finite worlds couple secrets to datasets through a joint distribution;
mechanisms act on datasets, and privacy is judged between adjacent secrets'
output distributions.  The package computes exact (epsilon, delta)
divergences, loss-distribution accounting and its copula decomposition,
composition bounds, Gaussian-copula noise coupling, inverse-composition
design, and optimal membership-inference audits.
"""

__version__ = "0.1.0"

from .audit import RocCurve, compare_protocol, lr_attack_roc, roc_bound_check
from .composition import (
    CompositionReport,
    PlrvDecomposition,
    basic_composition_check,
    cel_compare,
    composed_joint,
    composition_report,
    decompose_plrv,
    dominating_pair,
    dp_optcomp,
    overline_opt,
    tradeoff_dominance,
    true_opt,
    underline_opt,
)
from .copula import (
    EmpiricalMarginal,
    GaussianCopulaSpec,
    GaussianMarginal,
    LaplaceMarginal,
    bivariate_gaussian_cdf,
    conservative_bound,
    copula_cdf,
    copula_plrv,
    perturbed_decomposition,
    psedr_samples,
)
from .divergence import (
    DistPair,
    LossProfile,
    TradeoffCurve,
    check_dcp,
    hockey_stick,
    optimal_epsilon,
    tradeoff_curve,
)
from .ic import (
    CertReport,
    IcProblem,
    IcSolution,
    certify,
    epsilon_of_tau,
    pi_feasible,
    posterior,
    solve_task1,
    solve_task2,
    spsr_loss,
)
from .model import (
    DependenceGroup,
    MechanismKernel,
    Model,
    ModelError,
    World,
    build_adjacency,
    default_adjacency,
    effective_kernel,
    is_invertible,
    load_model,
)
from .pld import (
    convolve,
    epsilon_for_delta,
    pld_from_pair,
    privacy_profile,
    read_pld_csv,
    write_pld_csv,
)
