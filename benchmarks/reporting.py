"""Result reporting for the evaluation benchmarks.

Every benchmark regenerates one of the paper's tables/figures and calls
:func:`report` with the rows/series. Reports are written to
``benchmarks/results/<name>.txt`` and echoed in pytest's terminal summary
(see ``benchmarks/conftest.py``), so ``pytest benchmarks/
--benchmark-only`` shows both pytest-benchmark timings and the
paper-shaped outputs.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_session_reports: list[tuple[str, str]] = []


def report(name: str, text: str) -> None:
    """Record one experiment's regenerated table/series."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    _session_reports.append((name, text))


def session_reports() -> list[tuple[str, str]]:
    return list(_session_reports)


def format_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width table formatting for report output."""
    columns = [
        [str(header)] + [str(row[index]) for row in rows]
        for index, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = "  ".join(
        header.ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(
            str(cell).ljust(width) for cell, width in zip(row, widths)
        ))
    return "\n".join(lines)
