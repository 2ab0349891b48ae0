"""The CSV format of every table the package writes.

Comma separators, one header row, '\\n' line ends, and floats written with
repr, so float() reads each value back exactly.  This module imports
nothing from the package, so every module can write tables through it.
"""

from __future__ import annotations

from typing import Sequence


def csv_table(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """CSV text with one row per index of the equal-length `columns`.

    A str cell is written as given; every other cell as repr(float(cell)).
    """
    if len(columns) != len(header) or len({len(col) for col in columns}) > 1:
        raise ValueError("csv_table needs one column per header name, all of equal length")
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(c if isinstance(c, str) else repr(float(c)) for c in row))
    return "\n".join(lines) + "\n"
