"""Fredholm determinants of the confluent hypergeometric kernel.

The package evaluates det(I - K) for the confluent hypergeometric kernel
restricted to a union of intervals with per-interval weights, by three
independent routes (direct Nystrom discretization, a coupled Painleve-V
Hamiltonian flow, and closed-form large-gap asymptotics), plus the
counting-statistics layer built on top of them.
"""

from .asymptotics import (
    AsymptoticReport,
    MomentAsymptotics,
    large_gap_lnF,
    moment_asymptotics,
)
from .errors import DomainError, NonConvergenceError, RegimeError
from .fredholm import QuadratureGrid, build_grid, log_det
from .kernel import (
    Configuration,
    KernelParams,
    chf_kernel,
    chf_kernel_diagonal,
    sigma_step,
)
from .painleve import (
    CPVState,
    cpv_init,
    cpv_integrate,
    cpv_rhs,
    hamiltonian,
)
from .stats import (
    CountingStatistics,
    counting_statistics,
    numeric_covariance,
    numeric_mean,
    numeric_variance,
)

__all__ = [
    "DomainError",
    "NonConvergenceError",
    "RegimeError",
    "KernelParams",
    "Configuration",
    "chf_kernel",
    "chf_kernel_diagonal",
    "sigma_step",
    "QuadratureGrid",
    "build_grid",
    "log_det",
    "AsymptoticReport",
    "MomentAsymptotics",
    "large_gap_lnF",
    "moment_asymptotics",
    "CPVState",
    "cpv_rhs",
    "hamiltonian",
    "cpv_init",
    "cpv_integrate",
    "CountingStatistics",
    "counting_statistics",
    "numeric_mean",
    "numeric_variance",
    "numeric_covariance",
]

__version__ = "0.1.0"
