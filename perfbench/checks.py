"""Output checks made apart from the program, on the stdlib ``sqlite3`` module.

Every diagnosis the benchmark receives is checked here without calling back
into ``repro``: the request's initial rows are loaded into an in-memory
SQLite table, the response's ``repaired_sql`` runs there unchanged, and the
resulting state is compared with the complaints and with the states of the
clean and corrupted logs.  ``repair_f1`` is the paper's tuple-level F1
(precision over the tuples the repair changed, recall over the tuples the
corruption broke), computed from those SQLite states with tolerance 1e-4.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass, field

#: Value tolerance of every comparison (the paper's metric tolerance).
TOLERANCE = 1e-4

_NUMBER = re.compile(r"(?<![A-Za-z0-9_.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


class CheckFailed(Exception):
    """An output disagreed with the computation made apart from the program."""


@dataclass(frozen=True)
class Table:
    """What SQLite needs to hold one relation: name, attributes, initial rows."""

    name: str
    attributes: tuple[str, ...]
    rows: tuple[tuple[int, tuple[float, ...]], ...]

    @classmethod
    def from_database(cls, database) -> "Table":
        names = tuple(spec.name for spec in database.schema.attributes)
        rows = tuple(
            (row.rid, tuple(float(row.values[name]) for name in names))
            for row in database.rows()
        )
        return cls(database.schema.name, names, rows)


class SQLiteState:
    """An in-memory SQLite copy of a table's initial state.

    ``run(sql)`` executes a log against a fresh copy and returns the final
    state as ``{rid: values}``.  ``rid`` is an AUTOINCREMENT key, so an INSERT
    receives one past the largest rid ever used, as the program assigns it.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self._template = sqlite3.connect(":memory:")
        columns = ", ".join(f'"{name}" REAL NOT NULL' for name in table.attributes)
        self._template.execute(
            f'CREATE TABLE "{table.name}" '
            f"(rid INTEGER PRIMARY KEY AUTOINCREMENT, {columns})"
        )
        marks = ", ".join("?" for _ in range(len(table.attributes) + 1))
        self._template.executemany(
            f'INSERT INTO "{table.name}" VALUES ({marks})',
            [(rid, *values) for rid, values in table.rows],
        )
        self._template.commit()

    def run(self, sql: str) -> dict[int, tuple[float, ...]]:
        connection = sqlite3.connect(":memory:")
        try:
            self._template.backup(connection)
            connection.executescript(sql)
            cursor = connection.execute(
                f'SELECT * FROM "{self.table.name}" ORDER BY rid'
            )
            return {int(row[0]): tuple(float(v) for v in row[1:]) for row in cursor}
        finally:
            connection.close()

    def close(self) -> None:
        self._template.close()


def statements(sql: str) -> list[tuple[str, str]]:
    """``(label, statement)`` pairs of a rendered log (``-- label`` lines)."""
    pairs: list[tuple[str, str]] = []
    label = ""
    for line in sql.splitlines():
        text = line.strip()
        if not text:
            continue
        if text.startswith("--"):
            label = text[2:].strip()
            continue
        pairs.append((label, " ".join(text.rstrip(";").split())))
        label = ""
    return pairs


def skeleton(statement: str) -> str:
    """A statement with every numeric constant replaced by ``#``."""
    return _NUMBER.sub("#", statement)


def check_same_shape(reference_sql: str, repaired_sql: str) -> None:
    """The repaired log keeps every statement's count, order and label and
    changes only constants."""
    reference = statements(reference_sql)
    repaired = statements(repaired_sql)
    if len(reference) != len(repaired):
        raise CheckFailed(
            f"repaired log has {len(repaired)} statements, the input {len(reference)}"
        )
    for index, ((label_a, text_a), (label_b, text_b)) in enumerate(
        zip(reference, repaired)
    ):
        if label_a != label_b:
            raise CheckFailed(f"statement {index} label {label_b!r} != {label_a!r}")
        if skeleton(text_a) != skeleton(text_b):
            raise CheckFailed(
                f"statement {index} changed more than constants: {text_b!r} vs {text_a!r}"
            )


def _same(a: tuple[float, ...] | None, b: tuple[float, ...] | None) -> bool:
    if a is None or b is None:
        return a is b
    return all(abs(x - y) <= TOLERANCE for x, y in zip(a, b))


def check_complaints(
    state: dict[int, tuple[float, ...]],
    attributes: tuple[str, ...],
    complaints: list[tuple[int, dict[str, float] | None]],
) -> None:
    """Every complaint tuple equals its target; removal complaints are absent."""
    for rid, target in complaints:
        row = state.get(rid)
        if target is None:
            if row is not None:
                raise CheckFailed(f"rid {rid} should be removed but is present")
            continue
        if row is None:
            raise CheckFailed(f"rid {rid} is missing from the repaired state")
        for name, value in zip(attributes, row):
            if name in target and abs(value - float(target[name])) > TOLERANCE:
                raise CheckFailed(
                    f"rid {rid} attribute {name} is {value}, complaint wants {target[name]}"
                )


def tuple_f1(
    dirty: dict[int, tuple[float, ...]],
    truth: dict[int, tuple[float, ...]],
    repaired: dict[int, tuple[float, ...]],
) -> float:
    """The paper's tuple-level F1 of a repaired state."""
    rids = set(dirty) | set(truth) | set(repaired)
    changed = [rid for rid in rids if not _same(dirty.get(rid), repaired.get(rid))]
    errors = [rid for rid in rids if not _same(dirty.get(rid), truth.get(rid))]
    fixed = {rid for rid in rids if _same(repaired.get(rid), truth.get(rid))}
    if changed:
        precision = sum(1 for rid in changed if rid in fixed) / len(changed)
    else:
        precision = 0.0 if errors else 1.0
    recall = sum(1 for rid in errors if rid in fixed) / len(errors) if errors else 1.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def complaint_list(complaints) -> list[tuple[int, dict[str, float] | None]]:
    """``(rid, target)`` pairs of a complaint set, for :func:`check_complaints`."""
    return [
        (c.rid, None if c.target is None else dict(c.target)) for c in complaints
    ]


@dataclass
class CaseOracle:
    """Everything needed to check diagnoses of one request, computed once.

    ``clean_sql`` and ``corrupted_sql`` are the logs that produced the true
    and the dirty states; both run through SQLite here, not through the
    program's replay.
    """

    table: Table
    clean_sql: str
    corrupted_sql: str
    #: The reported complaints; ``None`` files one for every wrong tuple.
    complaints: list[tuple[int, dict[str, float] | None]] | None = None
    _sqlite: SQLiteState = field(init=False, repr=False)
    _truth: dict = field(init=False, repr=False)
    _dirty: dict = field(init=False, repr=False)
    _verdicts: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._sqlite = SQLiteState(self.table)
        self._truth = self._sqlite.run(self.clean_sql)
        self._dirty = self._sqlite.run(self.corrupted_sql)
        if self.complaints is None:
            self.complaints = complaints_between(
                self._dirty, self._truth, self.table.attributes
            )

    def state(self, sql: str) -> dict[int, tuple[float, ...]]:
        """The state ``sql`` leaves behind, computed by SQLite."""
        return self._sqlite.run(sql)

    def check(self, status: str, repaired_sql: str) -> float:
        """Check one response; return its F1 or raise :class:`CheckFailed`.

        Verdicts are memoized by repaired SQL: the same output checks the
        same way every time, so repeats of a request cost one lookup.
        """
        if status != "optimal":
            raise CheckFailed(f"diagnosis ended with status {status!r}, not optimal")
        verdict = self._verdicts.get(repaired_sql)
        if verdict is None:
            try:
                check_same_shape(self.corrupted_sql, repaired_sql)
                repaired = self._sqlite.run(repaired_sql)
                check_complaints(repaired, self.table.attributes, self.complaints)
                verdict = tuple_f1(self._dirty, self._truth, repaired)
            except (CheckFailed, sqlite3.Error) as error:
                verdict = CheckFailed(str(error))
            self._verdicts[repaired_sql] = verdict
        if isinstance(verdict, CheckFailed):
            raise verdict
        return verdict

    def close(self) -> None:
        self._sqlite.close()


def render(pairs: list[tuple[str, str]]) -> str:
    """A log in the program's rendering: ``-- label`` then the statement."""
    return "".join(f"-- {label}\n{text};\n" for label, text in pairs)


def check_same_log(expected: list[tuple[str, str]], actual_sql: str) -> None:
    """``actual_sql`` holds exactly the ``expected`` statements, in order,
    with equal labels and equal constants."""
    actual = statements(actual_sql)
    if len(actual) != len(expected):
        raise CheckFailed(f"log has {len(actual)} statements, expected {len(expected)}")
    for index, ((label_a, text_a), (label_b, text_b)) in enumerate(zip(expected, actual)):
        numbers_a = [float(x) for x in _NUMBER.findall(text_a)]
        numbers_b = [float(x) for x in _NUMBER.findall(text_b)]
        if (
            label_a != label_b
            or skeleton(text_a) != skeleton(text_b)
            or any(abs(x - y) > 1e-9 for x, y in zip(numbers_a, numbers_b))
        ):
            raise CheckFailed(
                f"statement {index}: {label_b} {text_b!r} != {label_a} {text_a!r}"
            )


def complaints_between(
    dirty: dict[int, tuple[float, ...]],
    truth: dict[int, tuple[float, ...]],
    attributes: tuple[str, ...],
) -> list[tuple[int, dict[str, float]]]:
    """The complaints a user would file: every tuple whose value is wrong."""
    return [
        (rid, dict(zip(attributes, truth[rid])))
        for rid in sorted(truth)
        if rid in dirty and not _same(dirty[rid], truth[rid])
    ]
