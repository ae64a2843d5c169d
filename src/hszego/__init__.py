"""Szego projections for (0,q)-forms on the Heisenberg group C^n x R.

Closed-form phase-function kernels, the weighted-Bergman / partial-Fourier
factorization of the projector, wave-packet synthesis, CR residual checks,
the monomial-integral vanishing classifier, and a verification CLI.
"""

from .bergman import (
    axis_coefficients,
    bergman_project,
    default_radius_sweep,
    divergence_witness,
    divergence_witnesses,
    gaussian_budget_window,
    gaussian_reproducing_check,
    monomial_integral,
    truncated_monomial_integral,
)
from .core import (
    BudgetError,
    DomainError,
    FormField,
    GridSpec,
    HeisenbergPoint,
    LambdaSignature,
    MultiIndex,
    ScalarField,
    UsageError,
    form_inner,
    form_norm,
    inner,
    norm,
)
from .forms import (
    apply_cr,
    cr_system_residual,
    reflect_to_hat,
    szego_project_form,
    vanishing_evidence,
    vanishing_reason,
)
from .phase import (
    PhaseChoice,
    fio_quadrature,
    gamma_moment,
    phase,
    szego_kernel_scalar,
)
from .transform import (
    FrequencyField,
    WavePacketSpec,
    frequency_pairing,
    make_wave_packet,
    packet_boundary_share,
    partial_ft,
    partial_ift,
    scalar_pipeline_project,
    szego_apply_direct,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
