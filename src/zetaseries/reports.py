"""Identity-check report records shared by the verification layers.

An :class:`IdentityReport` captures one evaluated identity instance:
which identity, at which parameters, whether the two sides matched, and
the residual.  Exact residuals are carried as ``num/den`` strings so a
serialized report never loses precision; numeric residuals are doubles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Tuple

__all__ = ["IdentityReport", "exact_compare", "numeric_compare"]


@dataclass(frozen=True)
class IdentityReport:
    id: str
    params: Tuple[Tuple[str, object], ...]
    status: str  # "exact_pass" | "numeric_pass" | "fail"
    residual: object  # str "num/den" (exact) or float (numeric)
    witness: Optional[Tuple[str, str]] = None

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def params_dict(self) -> dict:
        return dict(self.params)

    def sort_key(self) -> tuple:
        return (self.id, tuple((k, str(v)) for k, v in self.params))


def _freeze_params(params: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(params.items()))


def exact_compare(identity_id: str, params: Mapping[str, object], lhs, rhs) -> IdentityReport:
    """Compare two exact rationals; residual is lhs - rhs as "num/den"."""
    residual = Fraction(lhs) - Fraction(rhs)
    if residual == 0:
        return IdentityReport(identity_id, _freeze_params(params), "exact_pass", "0")
    return IdentityReport(
        identity_id,
        _freeze_params(params),
        "fail",
        str(residual),
        witness=(str(lhs), str(rhs)),
    )


def numeric_compare(
    identity_id: str, params: Mapping[str, object], lhs, rhs, tolerance: float
) -> IdentityReport:
    """Compare two numeric values within tolerance; residual is |lhs - rhs|."""
    residual = abs(lhs - rhs)
    if residual <= tolerance:
        return IdentityReport(identity_id, _freeze_params(params), "numeric_pass", float(residual))
    return IdentityReport(
        identity_id,
        _freeze_params(params),
        "fail",
        float(residual),
        witness=(repr(lhs), repr(rhs)),
    )
