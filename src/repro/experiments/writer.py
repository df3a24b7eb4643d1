"""Markdown report writer.

Turns experiment rows — live :class:`Row` lists, completed
:class:`~repro.experiments.runner.RunResult` objects or unified JSON
artifacts on disk — into a Markdown paper-vs-measured report (one section
per registered experiment), so a user can regenerate it for their own
instance sizes / trial counts with one call:

    from repro.experiments.writer import write_markdown_report
    write_markdown_report("my_experiments.md", trials=2000)

The full report resolves its sections through the experiment registry and
the unified runner, so it stays in sync with ``repro-probe run`` — the same
spec ids, parameter schemas and seeded streams.  Reports can equally be
rendered *after the fact* from artifacts written by
``repro-probe run --output``:

    from repro.experiments.writer import artifacts_to_markdown
    print(artifacts_to_markdown(sorted(Path("artifacts").glob("*.json"))))
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.experiments.report import Row, violations

#: Registry ids rendered by the quick report, in section order.
QUICK_REPORT_IDS: tuple[str, ...] = ("maj3", "crumbling-walls", "availability", "lemmas")

#: Additional ids rendered when ``include_slow=True``.
SLOW_REPORT_IDS: tuple[str, ...] = ("table1", "tree", "hqs", "randomized")


def rows_to_markdown(rows: Sequence[Row], title: str) -> str:
    """Render experiment rows as a Markdown section with a table."""
    lines = [f"## {title}", ""]
    lines.append("| experiment | system | params | quantity | measured | relation | paper | ok |")
    lines.append("|---|---|---|---|---|---|---|---|")
    for row in rows:
        ok = row.satisfied
        lines.append(
            "| {exp} | {system} | {params} | {quantity} | {measured:.4g} | {rel} | {paper} | {ok} |".format(
                exp=row.experiment,
                system=row.system,
                params=row.formatted_params() or "-",
                quantity=row.quantity.replace("|", "/"),
                measured=row.measured,
                rel=row.relation,
                paper="-" if row.paper is None else f"{row.paper:.4g}",
                ok="-" if ok is None else ("yes" if ok else "**NO**"),
            )
        )
    bad = violations(list(rows))
    lines.append("")
    if bad:
        lines.append(f"**{len(bad)} of {len(rows)} checked relations violated.**")
    else:
        checked = sum(1 for r in rows if r.satisfied is not None)
        lines.append(f"All {checked} checked relations hold ({len(rows)} rows total).")
    lines.append("")
    return "\n".join(lines)


def run_result_to_markdown(result) -> str:
    """Render one :class:`~repro.experiments.runner.RunResult` as a section."""
    section = rows_to_markdown(result.rows, result.title)
    if result.extra:
        section += "\n".join(result.extra) + "\n"
    return section


def artifact_to_markdown(path: str | Path) -> str:
    """Render one unified JSON artifact (``repro-probe run --output``)."""
    from repro.experiments.runner import load_artifact

    return run_result_to_markdown(load_artifact(path))


def artifacts_to_markdown(paths: Sequence[str | Path], title: str | None = None) -> str:
    """Assemble a Markdown report from unified JSON artifacts on disk."""
    sections = [
        title or "# Probe-complexity reproduction report",
        "",
        "Rendered from experiment artifacts by "
        "`repro.experiments.writer.artifacts_to_markdown`.",
        "",
    ]
    sections.extend(artifact_to_markdown(path) for path in paths)
    return "\n".join(sections)


def build_markdown_report(
    trials: int = 800, include_slow: bool = True, jobs: int = 1
) -> str:
    """Run the registered experiments and assemble a full Markdown report.

    ``trials`` scales every Monte-Carlo driver (specs without a ``trials``
    parameter, like ``maj3``, ignore it); ``include_slow=False`` skips the
    larger randomized and scaling sweeps (useful in tests); ``jobs`` fans
    the sections out across processes exactly like ``repro-probe run
    --jobs``.
    """
    from repro.experiments.runner import run_experiments

    ids = QUICK_REPORT_IDS + (SLOW_REPORT_IDS if include_slow else ())
    results = run_experiments(ids, overrides={"trials": trials}, jobs=jobs)
    sections: list[str] = [
        "# Probe-complexity reproduction report",
        "",
        "Regenerated by `repro.experiments.writer.build_markdown_report`.",
        "",
    ]
    sections.extend(run_result_to_markdown(result) for result in results)
    return "\n".join(sections)


def write_markdown_report(
    path: str | Path, trials: int = 800, include_slow: bool = True, jobs: int = 1
) -> Path:
    """Write the full Markdown report to ``path`` and return the path."""
    destination = Path(path)
    destination.write_text(
        build_markdown_report(trials=trials, include_slow=include_slow, jobs=jobs)
    )
    return destination
