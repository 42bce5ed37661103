"""A small column-oriented result table.

The sweeps behind the paper's figures produce 10^4–10^5 rows of mixed
string/number columns.  :class:`ResultTable` provides exactly the
operations the experiments need — append, filter, group, aggregate —
with numpy-backed numeric access and no heavyweight dependencies.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError


class ResultTable:
    """Columns of equal length, addressable by name."""

    def __init__(self, columns: Mapping[str, Sequence[Any]] | None = None) -> None:
        self._columns: dict[str, list[Any]] = {}
        if columns:
            lengths = {name: len(values) for name, values in columns.items()}
            if len(set(lengths.values())) > 1:
                raise ConfigurationError(f"ragged columns: {lengths}")
            self._columns = {name: list(values) for name, values in columns.items()}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, Any]]) -> "ResultTable":
        """Build from an iterable of row dicts (all with the same keys)."""
        table = cls()
        for row in rows:
            table.append(row)
        return table

    def append(self, row: Mapping[str, Any]) -> None:
        """Append one row; the first row fixes the schema."""
        if not self._columns:
            self._columns = {name: [value] for name, value in row.items()}
            return
        if set(row) != set(self._columns):
            missing = set(self._columns) - set(row)
            extra = set(row) - set(self._columns)
            raise ConfigurationError(
                f"row schema mismatch (missing {sorted(missing)}, "
                f"extra {sorted(extra)})"
            )
        for name, value in row.items():
            self._columns[name].append(value)

    @classmethod
    def concat(cls, tables: Sequence["ResultTable"]) -> "ResultTable":
        """Stack tables with identical schemas."""
        tables = [t for t in tables if len(t)]
        if not tables:
            return cls()
        out = cls({name: list(values) for name, values in tables[0]._columns.items()})
        for table in tables[1:]:
            if set(table._columns) != set(out._columns):
                raise ConfigurationError("cannot concat tables with different schemas")
            for name in out._columns:
                out._columns[name].extend(table._columns[name])
        return out

    # -- basic access ---------------------------------------------------------

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> list[Any]:
        """A column as a list (copies nothing; do not mutate)."""
        try:
            return self._columns[name]
        except KeyError:
            known = ", ".join(sorted(self._columns))
            raise ConfigurationError(f"no column {name!r} (have: {known})") from None

    def values(self, name: str) -> np.ndarray:
        """A column as a numpy array (numeric columns become float/int)."""
        return np.asarray(self.column(name))

    def rows(self) -> Iterator[dict[str, Any]]:
        names = self.column_names
        for i in range(len(self)):
            yield {name: self._columns[name][i] for name in names}

    def unique(self, name: str) -> list[Any]:
        """Distinct values of a column, in first-seen order."""
        seen: dict[Any, None] = {}
        for value in self.column(name):
            seen.setdefault(value, None)
        return list(seen)

    # -- relational operations ---------------------------------------------------

    def where(self, **match: Any) -> "ResultTable":
        """Rows whose columns equal the given values.

        A value may be a list/tuple/set, meaning "any of these".  A row
        is kept when ``not (value != wanted)`` (or ``value in wanted``)
        holds for every column; the filter runs column by column over
        row indices, without building a dict per row.
        """
        if len(self) == 0:
            # An empty table has no schema yet; any filter selects nothing.
            return ResultTable()
        tests = [(self.column(name), wanted) for name, wanted in match.items()]
        kept = range(len(self))
        for column, wanted in tests:
            if isinstance(wanted, (list, tuple, set, frozenset)):
                kept = [i for i in kept if column[i] in wanted]
            else:
                kept = [i for i in kept if not column[i] != wanted]
        if not kept:
            return ResultTable()
        out = ResultTable()
        out._columns = {
            name: [values[i] for i in kept]
            for name, values in self._columns.items()
        }
        return out

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "ResultTable":
        """Rows satisfying an arbitrary predicate."""
        return ResultTable.from_rows(row for row in self.rows() if predicate(row))

    def select(self, names: Sequence[str]) -> "ResultTable":
        """Project onto a subset of columns."""
        return ResultTable({name: self.column(name) for name in names})

    def with_column(self, name: str, values: Sequence[Any]) -> "ResultTable":
        """A copy with one column added or replaced."""
        if len(values) != len(self):
            raise ConfigurationError(
                f"column {name!r} has {len(values)} values for {len(self)} rows"
            )
        columns = {n: list(v) for n, v in self._columns.items()}
        columns[name] = list(values)
        return ResultTable(columns)

    def sort_by(self, name: str, reverse: bool = False) -> "ResultTable":
        order = sorted(
            range(len(self)), key=lambda i: self.column(name)[i], reverse=reverse
        )
        return ResultTable(
            {n: [vals[i] for i in order] for n, vals in self._columns.items()}
        )

    def group_by(self, names: Sequence[str] | str) -> dict[tuple, "ResultTable"]:
        """Partition rows by the values of one or more columns."""
        if isinstance(names, str):
            names = [names]
        groups: dict[tuple, list[dict[str, Any]]] = {}
        for row in self.rows():
            key = tuple(row[name] for name in names)
            groups.setdefault(key, []).append(row)
        return {key: ResultTable.from_rows(rows) for key, rows in groups.items()}

    def aggregate(
        self,
        by: Sequence[str] | str,
        **aggregations: tuple[str, Callable[[np.ndarray], Any]],
    ) -> "ResultTable":
        """Group and reduce: ``out = t.aggregate("infra", med=("error", np.median))``."""
        if isinstance(by, str):
            by = [by]
        out = ResultTable()
        for key, group in self.group_by(by).items():
            row: dict[str, Any] = dict(zip(by, key))
            for out_name, (col, fn) in aggregations.items():
                row[out_name] = fn(group.values(col))
            out.append(row)
        return out

    # -- persistence ----------------------------------------------------------

    def to_csv(self, path: "str | Path | None" = None) -> str:
        """Serialize as CSV; also written to ``path`` when given.

        Values are stringified; :meth:`from_csv` restores ints, floats,
        and booleans (sufficient for sweep tables).
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.column_names)
        for row in self.rows():
            writer.writerow([row[name] for name in self.column_names])
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_csv(cls, source: "str | Path") -> "ResultTable":
        """Load a table written by :meth:`to_csv`.

        ``source`` is a path if it names an existing file, otherwise it
        is parsed as CSV text.
        """
        path = Path(str(source)) if str(source) else None
        try:
            is_file = path is not None and path.is_file()
        except (OSError, ValueError):
            # CSV text long enough to overflow a filename (ENAMETOOLONG)
            # or containing NULs is certainly not a path.
            is_file = False
        text = path.read_text() if is_file else str(source)
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            return cls()
        table = cls()
        for values in reader:
            table.append(
                {name: _parse_csv_value(v) for name, v in zip(header, values)}
            )
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultTable({len(self)} rows x {len(self._columns)} cols)"


def _parse_csv_value(text: str) -> Any:
    """Best-effort restoration of CSV cell types."""
    if text == "True":
        return True
    if text == "False":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text
