"""Common result-row structure and plain-text table rendering.

Every experiment driver returns a list of :class:`Row` objects; the same
rows back the driver tests, the example scripts and the Markdown report
of :mod:`repro.experiments.writer`, so paper-versus-measured
comparisons are produced by exactly one code path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import Any


@dataclass(frozen=True)
class Row:
    """One line of an experiment report.

    ``measured`` is what our implementation produced, ``paper`` the value or
    bound predicted by the paper (already instantiated for the row's
    parameters), and ``relation`` how they are supposed to compare
    (``"<="``, ``">="``, ``"=="`` or ``"~"`` for asymptotic shape).

    ``tolerance`` is an optional absolute slack added on top of the default
    2% relative slack; Monte-Carlo drivers set it to the 95% confidence
    half-width of the measurement so that bounds the measurement sits
    *exactly on* (e.g. Probe_CW on wide uniform walls, where the expectation
    equals 2k − 1 up to vanishing terms) are not flagged due to sampling
    noise.
    """

    experiment: str
    system: str
    quantity: str
    measured: float
    paper: float | None = None
    relation: str = "~"
    params: dict[str, Any] = field(default_factory=dict)
    note: str = ""
    tolerance: float = 0.0

    @property
    def satisfied(self) -> bool | None:
        """Whether the stated relation holds (None when no paper value)."""
        if self.paper is None:
            return None
        tolerance = 1e-9 + 0.02 * abs(self.paper) + self.tolerance
        if self.relation == "<=":
            return self.measured <= self.paper + tolerance
        if self.relation == ">=":
            return self.measured >= self.paper - tolerance
        if self.relation == "==":
            return abs(self.measured - self.paper) <= tolerance
        return None  # "~": shape-only comparison, judged by the caller

    def formatted_params(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.params.items())


def render_table(rows: list[Row], title: str | None = None) -> str:
    """Render rows as an aligned plain-text table."""
    headers = ["experiment", "system", "params", "quantity", "measured", "rel", "paper", "ok", "note"]
    table = []
    for row in rows:
        ok = row.satisfied
        table.append(
            [
                row.experiment,
                row.system,
                row.formatted_params(),
                row.quantity,
                f"{row.measured:.4g}",
                row.relation,
                "-" if row.paper is None else f"{row.paper:.4g}",
                "-" if ok is None else ("yes" if ok else "NO"),
                row.note,
            ]
        )
    widths = [max(len(headers[i]), *(len(r[i]) for r in table)) if table else len(headers[i]) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def violations(rows: list[Row]) -> list[Row]:
    """Rows whose stated paper relation does not hold."""
    return [row for row in rows if row.satisfied is False]


def row_to_dict(row: Row) -> dict[str, Any]:
    """JSON-ready representation of one row (tuple params become lists)."""
    payload = asdict(row)
    payload["params"] = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in row.params.items()
    }
    return payload


def row_from_dict(payload: Mapping[str, Any]) -> Row:
    """Invert :func:`row_to_dict`.

    JSON has no tuple type, so list-valued params are restored as tuples —
    exactly inverting the serialization, which keeps ``formatted_params``
    (and therefore table/Markdown renderings) byte-identical across an
    artifact round trip.
    """
    params = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.get("params", {}).items()
    }
    return Row(
        experiment=payload["experiment"],
        system=payload["system"],
        quantity=payload["quantity"],
        measured=payload["measured"],
        paper=payload.get("paper"),
        relation=payload.get("relation", "~"),
        params=params,
        note=payload.get("note", ""),
        tolerance=payload.get("tolerance", 0.0),
    )
