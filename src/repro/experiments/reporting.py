"""Plain-text table formatting for experiment reports.

Prints paper-style tables to stdout without any plotting dependency;
figures are rendered as aligned numeric series (epoch/value pairs or
ASCII bars), which is what a terminal-only reproduction can ship.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Mapping, Sequence

from repro.io import atomic_write


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str = "",
    float_format: str = "{:.5f}",
) -> str:
    """Render rows as an aligned monospace table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def format_recall_ndcg_blocks(
    results: Mapping[str, Mapping[str, Mapping[str, object]]],
    row_header: str,
    title: str,
    row_label: Callable[[str], str] = str,
) -> str:
    """One table per architecture of ``results[arch][dataset][label]``.

    A row per label (in the first dataset's order), a Recall/NDCG column
    pair per dataset; ``title`` is formatted with ``arch``.  The layout
    Tables II and IV share.
    """
    blocks: List[str] = []
    for arch, per_dataset in results.items():
        headers = [row_header]
        for dataset in per_dataset:
            headers += [f"{dataset}:Recall", f"{dataset}:NDCG"]
        rows = []
        for label in next(iter(per_dataset.values())):
            row: List = [row_label(label)]
            for runs in per_dataset.values():
                row += [runs[label].recall, runs[label].ndcg]
            rows.append(row)
        blocks.append(format_table(headers, rows, title=title.format(arch=arch)))
    return "\n\n".join(blocks)


def write_artefact(out_dir: str, name: str, text: str) -> str:
    """Write one rendered artefact to ``<out_dir>/<name>.txt``; returns the path.

    Atomic, so a killed regeneration never leaves a half-written table
    next to the committed ones.
    """
    path = os.path.join(out_dir, f"{name}.txt")
    atomic_write(path, lambda handle: handle.write(text + "\n"))
    return path


def ascii_bar(value: float, maximum: float, width: int = 40) -> str:
    """A horizontal bar scaled to ``maximum`` (for figure-style output)."""
    if maximum <= 0:
        return ""
    filled = int(round(width * max(value, 0.0) / maximum))
    return "#" * min(filled, width)


def format_series(series: Sequence[tuple], label: str = "") -> str:
    """Render an (x, y) series as one aligned line per point."""
    lines = [label] if label else []
    for x, y in series:
        lines.append(f"  {x:>6}  {y:.4f}")
    return "\n".join(lines)
