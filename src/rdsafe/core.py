"""Data model, ingestion, and validation for multi-cutoff sharp RD datasets.

Groups are identified by arbitrary labels in input files; internally every
label is mapped to a rank 1..Q in cutoff-ascending order, which is the
indexing every estimator uses. Original labels are kept for reporting.
"""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np


class RdsafeError(Exception):
    """Base class for errors raised by this package."""


class DesignError(RdsafeError, ValueError):
    """Invalid study design or policy (tied cutoffs, too few groups, unknown group)."""


class DataError(RdsafeError, ValueError):
    """Malformed or inconsistent input data."""


class AssignmentViolationError(DataError):
    """Observed treatment contradicts the sharp assignment rule 1(x >= cutoff)."""


class EstimationError(RdsafeError, RuntimeError):
    """An estimation step could not be carried out on the given data."""


def _check_finite(value, what, row=None):
    if not math.isfinite(value):
        loc = f" (row {row})" if row is not None else ""
        raise DataError(f"{what} must be finite, got {value!r}{loc}")


class StudyDesign:
    """Group labels with their baseline cutoffs, ranked in cutoff-ascending order.

    Requires at least two groups and strictly increasing cutoffs. Tied cutoffs
    are rejected: merging tied groups would silently change the estimand, so
    merge them upstream if that is intended.
    """

    def __init__(self, cutoffs: Mapping):
        if len(cutoffs) < 2:
            raise DesignError(
                "a study design needs at least two groups with distinct cutoffs; "
                "single-cutoff designs have no cross-group extrapolation source"
            )
        for label, c in cutoffs.items():
            _check_finite(float(c), f"cutoff for group {label!r}")
        items = sorted(cutoffs.items(), key=lambda kv: (float(kv[1]), str(kv[0])))
        for (la, ca), (lb, cb) in zip(items, items[1:]):
            if not float(ca) < float(cb):
                raise DesignError(
                    f"groups {la!r} and {lb!r} share the baseline cutoff {ca!r}; "
                    "tied cutoffs are not supported -- merge tied groups upstream"
                )
        self._labels = tuple(label for label, _ in items)
        self._cutoffs = {label: float(c) for label, c in items}
        self._rank = {label: i + 1 for i, label in enumerate(self._labels)}
        arr = np.array([float(c) for _, c in items], dtype=float)
        arr.flags.writeable = False
        self._sorted_cutoffs = arr

    @property
    def groups(self) -> tuple:
        """Group labels in cutoff-ascending order."""
        return self._labels

    @property
    def cutoffs(self) -> dict:
        return dict(self._cutoffs)

    @property
    def q(self) -> int:
        return len(self._labels)

    @property
    def sorted_cutoffs(self) -> np.ndarray:
        """Baseline cutoffs c1 < c2 < ... < cQ, indexed by rank - 1."""
        return self._sorted_cutoffs

    @property
    def c_min(self) -> float:
        return float(self._sorted_cutoffs[0])

    @property
    def c_max(self) -> float:
        return float(self._sorted_cutoffs[-1])

    def rank_of(self, label) -> int:
        try:
            return self._rank[label]
        except KeyError:
            raise DesignError(f"unknown group {label!r}") from None

    def label_of(self, rank: int):
        if not 1 <= rank <= self.q:
            raise DesignError(f"rank {rank} outside 1..{self.q}")
        return self._labels[rank - 1]

    def cutoff_of_rank(self, rank: int) -> float:
        return float(self._sorted_cutoffs[rank - 1])

    def __eq__(self, other):
        return isinstance(other, StudyDesign) and self._cutoffs == other._cutoffs

    def __hash__(self):
        return hash(tuple(self._cutoffs.items()))

    def __repr__(self):
        return f"StudyDesign({self._cutoffs!r})"


@dataclass(frozen=True)
class Record:
    """One observation: running variable, group label, treatment, outcome."""

    x: float
    g: object
    w: int
    y: float


@dataclass(frozen=True)
class UtilityConfig:
    """Cost-adjusted utility u(y, w) = y - cost * w."""

    cost: float = 0.0

    def __post_init__(self):
        _check_finite(self.cost, "treatment cost")
        if self.cost < 0:
            raise DataError(f"treatment cost must be nonnegative, got {self.cost}")


class Dataset:
    """Immutable, validated collection of sharp-RD records under a design.

    Validation checks every record's treatment against the sharp rule
    w == 1(x >= cutoff of its group) and enforces a minimum group size.
    """

    def __init__(self, records, design: StudyDesign, min_group_size: int = 30):
        records = tuple(records)
        n = len(records)
        x = np.empty(n)
        y = np.empty(n)
        w = np.empty(n, dtype=np.int64)
        rank = np.empty(n, dtype=np.int64)
        for i, r in enumerate(records):
            _check_finite(r.x, "running variable x", row=i)
            _check_finite(r.y, "outcome y", row=i)
            if r.w not in (0, 1):
                raise DataError(f"treatment w must be 0 or 1, got {r.w!r} (row {i})")
            rk = design.rank_of(r.g)
            expected = 1 if r.x >= design.cutoff_of_rank(rk) else 0
            if r.w != expected:
                raise AssignmentViolationError(
                    f"row {i}: group {r.g!r} has cutoff "
                    f"{design.cutoff_of_rank(rk)} and x={r.x}, so the sharp rule "
                    f"implies w={expected}, but w={r.w} was observed"
                )
            x[i], y[i], w[i], rank[i] = r.x, r.y, r.w, rk
        counts = np.bincount(rank, minlength=design.q + 1)[1:]
        for rk, cnt in enumerate(counts, start=1):
            if cnt < min_group_size:
                raise DataError(
                    f"group {design.label_of(rk)!r} has {cnt} records, fewer than "
                    f"the required minimum of {min_group_size}"
                )
        for arr in (x, y, w, rank):
            arr.flags.writeable = False
        self.records = records
        self.design = design
        self.x = x
        self.y = y
        self.w = w
        self.rank = rank

    def __len__(self):
        return len(self.records)

    def utility_outcomes(self, cfg: UtilityConfig | None) -> np.ndarray:
        """Outcomes after the cost adjustment u(y, w) = y - C*w."""
        if cfg is None or cfg.cost == 0.0:
            return self.y
        return self.y - cfg.cost * self.w


class ThresholdPolicy:
    """One candidate cutoff per group: pi(x, g) = 1(x >= c_g).

    Cutoffs must lie inside [c1, cQ], the span of the baseline cutoffs
    (the overlap policy class); outside that span the data carry no
    information about counterfactual outcomes.
    """

    def __init__(self, cutoffs: Mapping, design: StudyDesign):
        missing = set(design.groups) - set(cutoffs)
        if missing:
            raise DesignError(f"policy is missing cutoffs for groups {sorted(map(str, missing))}")
        unknown = set(cutoffs) - set(design.groups)
        if unknown:
            raise DesignError(f"policy names unknown groups {sorted(map(str, unknown))}")
        lo, hi = design.c_min, design.c_max
        by_rank = np.empty(design.q)
        for label, c in cutoffs.items():
            c = float(c)
            _check_finite(c, f"policy cutoff for group {label!r}")
            if not lo <= c <= hi:
                raise DesignError(
                    f"policy cutoff {c} for group {label!r} lies outside "
                    f"[{lo}, {hi}], the span of the baseline cutoffs"
                )
            by_rank[design.rank_of(label) - 1] = c
        by_rank.flags.writeable = False
        self.design = design
        self.cutoffs = {label: float(cutoffs[label]) for label in design.groups}
        self.cutoff_by_rank = by_rank

    def assign(self, x: float, g) -> int:
        return 1 if x >= self.cutoffs_for(g) else 0

    def cutoffs_for(self, g) -> float:
        try:
            return self.cutoffs[g]
        except KeyError:
            raise DesignError(f"unknown group {g!r}") from None

    def indicator(self, x: np.ndarray, rank) -> np.ndarray:
        """Vectorized pi(x, g) for rank scalar or per-record rank array."""
        cuts = self.cutoff_by_rank[np.asarray(rank) - 1]
        return np.asarray(x) >= cuts

    def __eq__(self, other):
        return (
            isinstance(other, ThresholdPolicy)
            and self.design == other.design
            and self.cutoffs == other.cutoffs
        )

    def __repr__(self):
        return f"ThresholdPolicy({self.cutoffs!r})"


def baseline_policy(design: StudyDesign) -> ThresholdPolicy:
    """The status-quo assignment rule 1(x >= baseline cutoff of the group)."""
    return ThresholdPolicy(design.cutoffs, design)


_COLUMNS = ("x", "g", "w", "y")


def _text_stream(source):
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.TextIOBase):
        return source
    # binary file-like
    return io.TextIOWrapper(source, encoding="utf-8", newline="")


def _match_group(raw: str, design: StudyDesign, row: int):
    if raw in design.cutoffs:
        return raw
    try:
        as_int = int(raw)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in design.cutoffs:
        return as_int
    raise DesignError(f"row {row}: unknown group {raw!r}; design groups are {list(design.groups)}")


def load_dataset(
    source,
    design: StudyDesign,
    delimiter: str = ",",
    min_group_size: int = 30,
) -> Dataset:
    """Parse delimiter-separated text with header columns x, g, w, y.

    `source` is a path, bytes, or a text or binary stream; a file opened from a
    path is closed before returning. Column names are case-insensitive and may
    appear in any order. Every row is checked against the sharp assignment
    rule of the design; the first offending row is reported.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as stream:
            records = _read_records(stream, design, delimiter)
    else:
        records = _read_records(_text_stream(source), design, delimiter)
    return Dataset(records, design, min_group_size=min_group_size)


def _read_records(stream, design: StudyDesign, delimiter: str) -> list:
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("input is empty: expected a header row with columns x,g,w,y") from None
    names = [h.strip().lower() for h in header]
    col = {}
    for name in _COLUMNS:
        if name not in names:
            raise DataError(f"missing column {name!r} in header {header!r}")
        col[name] = names.index(name)
    records = []
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(names):
            raise DataError(f"row {row_no}: expected {len(names)} fields, got {len(row)}")
        try:
            x = float(row[col["x"]])
            w = int(row[col["w"]])
            y = float(row[col["y"]])
        except ValueError as exc:
            raise DataError(f"row {row_no}: could not parse numeric field ({exc})") from None
        g = _match_group(row[col["g"]].strip(), design, row_no)
        records.append(Record(x=x, g=g, w=w, y=y))
    return records


def serialize_dataset(dataset: Dataset, delimiter: str = ",") -> str:
    """Emit the dataset in the same CSV dialect; numeric fields round-trip exactly."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for r in dataset.records:
        writer.writerow([repr(r.x), r.g, r.w, repr(r.y)])
    return out.getvalue()
