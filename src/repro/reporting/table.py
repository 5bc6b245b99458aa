"""Rendering of Table-2-style result tables.

The benchmark harness collects :class:`~repro.reporting.metrics.CaseMetrics`
records and renders them in the same column layout as the paper's Table 2
(name, states, branched bits, total bits, runtime, memory), plus the
reproduction-specific columns (verdict, template pairs, relation size, solver
queries).  Plain-text and Markdown renderers are provided; the Markdown output
is what ``EXPERIMENTS.md`` embeds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .metrics import CaseMetrics

_COLUMNS = (
    ("Name", "name"),
    ("States", "states"),
    ("Branched (bits)", "branched_bits"),
    ("Total (bits)", "total_bits"),
    ("Runtime (s)", "runtime_seconds"),
    ("Memory (MB)", "peak_memory_mb"),
    ("Verdict", "verdict"),
    ("Pairs", "reachable_pairs"),
    ("Relation", "relation_size"),
    ("SMT queries", "solver_queries"),
    ("Cache hit %", "cache_hit_percent"),
    ("AIG saved", "aig_saved"),
    ("Divergences", "divergences"),
)

_HEADERS = [label for label, _ in _COLUMNS]


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "proved" if value else "refuted"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _rows(cases: Sequence[CaseMetrics]) -> List[List[str]]:
    records = [case.as_dict() for case in cases]
    return [
        [_format_value(record.get(key)) for _, key in _COLUMNS]
        for record in records
    ]


def render_fixed_width(headers: Sequence[str], rows: Sequence[Sequence[str]],
                       title: Optional[str] = None) -> str:
    """A fixed-width text table: header line, dashed rule, one line per row.

    The shared renderer behind the Table 2 output, the oracle-suite summary
    and ``scenarios list``.
    """
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_text(cases: Sequence[CaseMetrics], title: Optional[str] = None) -> str:
    """Fixed-width text table (printed by the benchmark harness)."""
    return render_fixed_width(_HEADERS, _rows(cases), title=title)


def render_markdown(cases: Sequence[CaseMetrics], title: Optional[str] = None) -> str:
    """Markdown table (embedded in EXPERIMENTS.md)."""
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(_HEADERS) + " |")
    lines.append("|" + "|".join("---" for _ in _HEADERS) + "|")
    for row in _rows(cases):
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
