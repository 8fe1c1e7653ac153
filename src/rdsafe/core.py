"""Data model, ingestion, and validation for multi-cutoff sharp RD datasets.

Groups are identified by arbitrary labels in input files; internally every
label is mapped to a rank 1..Q in cutoff-ascending order, which is the
indexing every estimator uses, and `StudyDesign.label_of` maps a rank back to
its label for reporting. A `Dataset` is columnar: the arrays x, w, y and rank,
validated in whole-array operations, with no per-observation objects.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import os
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


class Dataset:
    """Validated sharp-RD observations under a design, as read-only columns.

    x, w and y are the running variable, treatment and outcome; the group
    labels g are stored as their ranks (`design.label_of(rank)` maps back).
    The checks, in order: x and y finite, w in {0, 1}, g a design group, the
    sharp rule w == 1(x >= cutoff of g), then `min_group_size` per group.
    An error names the first failing observation by 0-based "row" and its
    first failed check.
    """

    def __init__(self, x, g, w, y, design: StudyDesign, min_group_size: int = 30):
        x = np.array(x, dtype=float)
        y = np.array(y, dtype=float)
        w = np.asarray(w)
        labels = g.tolist() if isinstance(g, np.ndarray) else list(g)
        n = x.size
        if not x.ndim == y.ndim == w.ndim == 1 or not n == len(labels) == w.size == y.size:
            raise DataError(
                f"x, g, w and y must be 1-d columns of one length, got lengths "
                f"{x.size}, {len(labels)}, {w.size} and {y.size}"
            )
        rank = np.fromiter(map(design._rank.get, labels, itertools.repeat(0)),
                           dtype=np.int64, count=n)
        cut = design.sorted_cutoffs[rank - 1]
        bad = (~np.isfinite(x) | ~np.isfinite(y) | ((w != 0) & (w != 1))
               | (rank == 0) | (w != (x >= cut)))
        if bad.any():
            # the checks again, in order, on the first failing row alone
            i = int(np.argmax(bad))
            xi, wi, label = float(x[i]), w.tolist()[i], labels[i]
            _check_finite(xi, "running variable x", row=i)
            _check_finite(float(y[i]), "outcome y", row=i)
            if wi not in (0, 1):
                raise DataError(f"treatment w must be 0 or 1, got {wi!r} (row {i})")
            cutoff = design.cutoff_of_rank(design.rank_of(label))
            raise AssignmentViolationError(
                f"row {i}: group {label!r} has cutoff {cutoff} and x={xi}, so the "
                f"sharp rule implies w={int(xi >= cutoff)}, but w={wi} was observed"
            )
        counts = np.bincount(rank, minlength=design.q + 1)[1:]
        for rk, cnt in enumerate(counts, start=1):
            if cnt < min_group_size:
                raise DataError(
                    f"group {design.label_of(rk)!r} has {cnt} records, fewer than "
                    f"the required minimum of {min_group_size}"
                )
        w = w.astype(np.int64)
        for arr in (x, y, w, rank):
            arr.flags.writeable = False
        self.design = design
        self.x = x
        self.y = y
        self.w = w
        self.rank = rank

    def __len__(self):
        return self.x.size


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


def _match_group(raw: str, design: StudyDesign, row: int | None):
    if raw in design.cutoffs:
        return raw
    try:
        as_int = int(raw)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in design.cutoffs:
        return as_int
    raise DesignError(f"row {row}: unknown group {raw!r}; design groups are {list(design.groups)}")


def load_dataset(source, design: StudyDesign, min_group_size: int = 30) -> Dataset:
    """Parse comma-separated text with header columns x, g, w, y.

    `source` is a path or a text or binary stream; a file opened from a path
    is closed before returning, and a caller's stream is left open.
    Column names are case-insensitive and may appear in any order. Blank rows
    are skipped. A row that is short or does not parse is reported by its
    1-based data line; the `Dataset` checks, among them the sharp assignment
    rule of the design, report the first offending record.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as stream:
            columns = _read_columns(stream, design)
    elif isinstance(source, io.TextIOBase):
        columns = _read_columns(source, design)
    else:
        # binary file-like: a dropped wrapper would close the stream it wraps
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            columns = _read_columns(stream, design)
        finally:
            stream.detach()
    return Dataset(*columns, design, min_group_size=min_group_size)


def _read_columns(stream, design: StudyDesign) -> tuple:
    """The columns (x, g, w, y) of the data rows; g holds design labels."""
    reader = csv.reader(stream)
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
    rows = list(reader)
    # blank rows are skipped, but still counted in the line numbers
    filled = list(map(bool, map(str.strip, map("".join, rows))))
    data = list(itertools.compress(rows, filled))
    width = len(names)
    if min(map(len, data), default=width) >= width:
        cells = list(zip(*data)) or [()] * width
        try:
            labels = {raw: _match_group(raw.strip(), design, None) for raw in set(cells[col["g"]])}
            return (list(map(float, cells[col["x"]])), list(map(labels.get, cells[col["g"]])),
                    list(map(int, cells[col["w"]])), list(map(float, cells[col["y"]])))
        except ValueError:  # a bad number, or DesignError for an unknown label
            pass
    # a row is short or does not parse: find the first, as it is numbered in the file
    for row_no, row in itertools.compress(enumerate(rows, start=1), filled):
        if len(row) < width:
            raise DataError(f"row {row_no}: expected {width} fields, got {len(row)}")
        try:
            float(row[col["x"]])
            int(row[col["w"]])
            float(row[col["y"]])
        except ValueError as exc:
            raise DataError(f"row {row_no}: could not parse numeric field ({exc})") from None
        _match_group(row[col["g"]].strip(), design, row_no)


def serialize_dataset(dataset: Dataset) -> str:
    """Emit the dataset as the CSV `load_dataset` reads; numeric fields round-trip exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows(zip(map(repr, dataset.x.tolist()),
                         map(dataset.design.label_of, dataset.rank.tolist()),
                         dataset.w.tolist(), map(repr, dataset.y.tolist())))
    return out.getvalue()
