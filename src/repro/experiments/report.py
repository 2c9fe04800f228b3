"""Report rendering for experiment results.

Turns the dataclass rows produced by the sweep/comparison modules into ASCII
tables and CSV files; the benchmark harness prints the tables so that
EXPERIMENTS.md entries can be regenerated by re-running the benchmarks.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.exceptions import ExperimentError
from repro.utils.tables import format_csv, format_table

__all__ = ["rows_to_table", "rows_to_csv", "write_csv"]


def _row_to_dict(row: object) -> dict:
    if dataclasses.is_dataclass(row) and not isinstance(row, type):
        return dataclasses.asdict(row)
    if isinstance(row, dict):
        return dict(row)
    raise ExperimentError(f"cannot render row of type {type(row).__name__}")


def _collect(rows: Iterable[object]) -> tuple[List[str], List[List[object]]]:
    dict_rows = [_row_to_dict(row) for row in rows]
    if not dict_rows:
        return [], []
    headers = list(dict_rows[0].keys())
    for row in dict_rows:
        if list(row.keys()) != headers:
            raise ExperimentError("all rows must share the same fields")
    return headers, [[row[h] for h in headers] for row in dict_rows]


def rows_to_table(rows: Sequence[object], title: str = "", float_format: str = ".5g") -> str:
    """Render a homogeneous sequence of dataclass/dict rows as an ASCII table."""
    headers, body = _collect(rows)
    if not headers:
        return title or "(no rows)"
    return format_table(headers, body, float_format=float_format, title=title)


def rows_to_csv(rows: Sequence[object], float_format: str = ".8g") -> str:
    """Render rows as CSV text."""
    headers, body = _collect(rows)
    if not headers:
        return ""
    return format_csv(headers, body, float_format=float_format)


def write_csv(rows: Sequence[object], path: Union[str, Path]) -> Path:
    """Write rows to ``path`` as CSV and return the path."""
    path = Path(path)
    path.write_text(rows_to_csv(rows) + "\n", encoding="utf-8")
    return path
