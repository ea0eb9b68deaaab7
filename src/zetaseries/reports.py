"""Identity-check reports and the tables that print them.

An :class:`IdentityReport` captures one evaluated identity instance:
which identity, at which parameters, whether the two sides matched, and
the residual.  ``compare`` builds every report, exactly or within a
tolerance.  Exact residuals are carried as ``num/den`` strings so a
serialized report never loses precision; numeric residuals are doubles.
``render`` writes a header and rows of cells as a CSV or markdown table,
for the verification reports and the CLI tables alike.
"""

from __future__ import annotations

import io
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .powerseries import TruncSeries

__all__ = ["IdentityReport", "compare", "render"]


class IdentityReport(NamedTuple):
    id: str
    params: Tuple[Tuple[str, object], ...]
    status: str  # "exact_pass" | "numeric_pass" | "fail"
    residual: object  # str "num/den" (exact) or float (numeric)
    witness: Optional[Tuple[str, str]] = None

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def sort_key(self) -> tuple:
        return (self.id, tuple((k, str(v)) for k, v in self.params))


def compare(
    identity_id: str, params: Mapping[str, object], lhs, rhs, tolerance: Optional[float] = None
) -> IdentityReport:
    """Report whether the two sides of an identity agree at params.

    With a tolerance (0.0 included) the sides agree when |lhs - rhs| is at
    most the tolerance; the residual is that distance as a float and a
    failure's witness is the ``repr`` of each side.  Without one they
    compare exactly and the residual is lhs - rhs as "num/den";
    truncated series compare coefficientwise up to the shorter order and
    a failure reports the first coefficient that differs, labelled
    ``[z^i]``.
    """
    frozen = tuple(sorted(params.items()))
    if tolerance is not None:
        distance = abs(lhs - rhs)
        if distance <= tolerance:
            return IdentityReport(identity_id, frozen, "numeric_pass", float(distance))
        return IdentityReport(identity_id, frozen, "fail", float(distance), (repr(lhs), repr(rhs)))
    label = ""
    if isinstance(lhs, TruncSeries):
        first = next(((i, a, b) for i, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if a != b), None)
        if first is None:
            return IdentityReport(identity_id, frozen, "exact_pass", "0")
        i, lhs, rhs = first
        label = f"[z^{i}] "
    residual = Fraction(lhs) - Fraction(rhs)
    if residual == 0:
        return IdentityReport(identity_id, frozen, "exact_pass", "0")
    return IdentityReport(identity_id, frozen, "fail", str(residual), (f"{label}{lhs}", f"{label}{rhs}"))


def render(header: Sequence[str], rows: Iterable[Sequence[str]], format: str) -> str:
    """A header and rows of string cells as a ``csv`` or ``markdown`` table,
    each line ending in a newline."""
    if format == "csv":
        import csv  # on first use: it would add to every import of the package

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue()
    if format == "markdown":
        lines = [header, ["---"] * len(header), *rows]
        return "".join("| " + " | ".join(line) + " |\n" for line in lines)
    raise ValueError("a table renders as csv or markdown")
