"""Zeta-series generating-function transform coefficients and the
identities built on them.

Layering, lowest first: exact arithmetic (:mod:`exactnum`), Stirling and
Bernoulli numbers (:mod:`stirling`), exact harmonic numbers
(:mod:`harmonicnums`), truncated power series (:mod:`powerseries`), the
transform coefficient table (:mod:`coeffs`), harmonic-number identities
(:mod:`harmonic`), identity reports (:mod:`reports`), the transform and
its constructions on series (:mod:`series`), numeric special functions
(:mod:`special`), remainder-term sums (:mod:`msums`), the identity
verification registry (:mod:`audit`) and its six suites (``suite_core``
and the rest, one module each), behind the :mod:`cli`.  No module
imports a later one, except that :mod:`audit` loads its suites by name,
on first use.  Each public name has one home, the one module whose
``__all__`` lists it, and the package imports it from there.
``zetaseries.harmonic`` is the function
``harmonicnums.harmonic``, even as ``import zetaseries.harmonic as m``;
``from zetaseries.harmonic import ...`` or ``importlib`` reach the module.

Importing the package loads every layer below :mod:`audit`.  The
verification layer loads on first use: reading ``run_suite``,
``suite_names`` or ``emit_report`` from the package imports it, so a
process that never verifies does not pay for it.  A ``verify --suite S``
process loads :mod:`audit` and the one suite module of ``S`` (see
:mod:`audit`).
"""

from .coeffs import (
    remainder_t,
    s2star_general_f,
    s2star_harmonic,
    s2star_heuristic,
    s2star_ogf_coeff,
    s2star_rec,
    s2star_reverse_binomial,
    s2star_scaled,
    s2star_sum,
)
from .exactnum import Rational, parse_rational
from .harmonic import (
    harmonic_binomial_form,
    harmonic_powers_of_n,
    harmonic_rec_corollary,
    harmonic_via_rec,
    npow_inverse,
)
from .harmonicnums import harmonic, harmonic_real, harmonic_t
from .msums import MSumSpec, m_alt, m_def, m_recurrence_residual, m_value
from .powerseries import TruncSeries
from .reports import IdentityReport
from .series import intro_example, multisection, transform_forward, transform_zeta
from .special import (
    EvalResult,
    bernoulli_closed_logforms,
    bernoulli_fourier,
    hurwitz_phi,
    li_classic_series,
    li_direct_sum,
    li_new_series,
    trilog_functional_eq_check,
    zeta_ref,
    zeta_star,
    zeta_star_euler_form,
    zeta_star_harmonic_form,
)
from .stirling import (
    bernoulli_number,
    bernoulli_poly,
    faulhaber_sum,
    npow_forward,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
)

__version__ = "0.1.0"

_AUDIT_NAMES = ("run_suite", "suite_names", "emit_report")


def __getattr__(name):
    if name in _AUDIT_NAMES:
        from . import audit

        return getattr(audit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_AUDIT_NAMES})


__all__ = [
    "Rational",
    "parse_rational",
    "stirling2",
    "stirling1_unsigned",
    "stirling1_signed",
    "bernoulli_number",
    "bernoulli_poly",
    "faulhaber_sum",
    "harmonic",
    "harmonic_real",
    "harmonic_t",
    "s2star_rec",
    "s2star_sum",
    "s2star_harmonic",
    "s2star_heuristic",
    "s2star_ogf_coeff",
    "s2star_scaled",
    "s2star_general_f",
    "s2star_reverse_binomial",
    "remainder_t",
    "npow_inverse",
    "npow_forward",
    "harmonic_via_rec",
    "harmonic_rec_corollary",
    "harmonic_binomial_form",
    "harmonic_powers_of_n",
    "TruncSeries",
    "transform_forward",
    "transform_zeta",
    "intro_example",
    "multisection",
    "EvalResult",
    "li_new_series",
    "li_classic_series",
    "li_direct_sum",
    "hurwitz_phi",
    "zeta_ref",
    "zeta_star",
    "zeta_star_harmonic_form",
    "zeta_star_euler_form",
    "trilog_functional_eq_check",
    "bernoulli_fourier",
    "bernoulli_closed_logforms",
    "MSumSpec",
    "m_def",
    "m_alt",
    "m_value",
    "m_recurrence_residual",
    "IdentityReport",
    "run_suite",
    "suite_names",
    "emit_report",
    "__version__",
]
