"""Plain-text table rendering for experiment and benchmark output.

Experiment tables, examples and benchmarks print their rows as simple
monospaced tables; this module is the single place that formatting lives so
that they all look the same.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_records"]


def _format_cell(value: Any, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: Optional[str] = None,
    float_format: str = ".4g",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    headers = [str(header) for header in headers]
    rendered_rows: List[List[str]] = []
    for row in rows:
        cells = [_format_cell(value, float_format) for value in row]
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells but there are {len(headers)} headers"
            )
        rendered_rows.append(cells)

    widths = [len(header) for header in headers]
    for cells in rendered_rows:
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), sum(widths) + 2 * (len(widths) - 1)))
    lines.append(render_line(headers))
    lines.append(render_line(["-" * width for width in widths]))
    lines.extend(render_line(cells) for cells in rendered_rows)
    return "\n".join(lines)


def format_records(
    records: Sequence[Mapping[str, Any]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_format: str = ".4g",
) -> str:
    """Render a list of dictionaries (records) as a table.

    ``columns`` selects and orders the keys; by default the keys of the first
    record are used in insertion order.
    """
    records = list(records)
    if not records:
        return title or "(no records)"
    if columns is None:
        columns = list(records[0].keys())
    rows = [[record.get(column, "") for column in columns] for record in records]
    return format_table(columns, rows, title=title, float_format=float_format)
