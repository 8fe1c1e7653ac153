import gc
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdsafe import core
from rdsafe.core import (
    AssignmentViolationError,
    DataError,
    Dataset,
    DesignError,
    Record,
    StudyDesign,
    ThresholdPolicy,
    UtilityConfig,
    baseline_policy,
    load_dataset,
    serialize_dataset,
)


def make_records(design, n_per_group=40, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for label, cut in design.cutoffs.items():
        x = rng.uniform(cut - 50, cut + 50, n_per_group)
        for xi in x:
            records.append(Record(x=float(xi), g=label,
                                  w=int(xi >= cut), y=float(rng.normal())))
    return records


class TestStudyDesign:
    def test_ranks_follow_cutoff_order(self):
        d = StudyDesign({"b": 5.0, "a": -2.0, "c": 9.0})
        assert d.groups == ("a", "b", "c")
        assert d.rank_of("a") == 1 and d.rank_of("c") == 3
        assert d.cutoff_of_rank(2) == 5.0
        assert d.c_min == -2.0 and d.c_max == 9.0

    def test_rejects_single_group(self):
        with pytest.raises(DesignError):
            StudyDesign({"only": 0.0})

    def test_rejects_tied_cutoffs(self):
        with pytest.raises(DesignError, match="tied"):
            StudyDesign({"a": 1.0, "b": 1.0})

    def test_rejects_nonfinite_cutoff(self):
        with pytest.raises(DataError):
            StudyDesign({"a": 0.0, "b": float("nan")})

    def test_unknown_group(self):
        d = StudyDesign({"a": 0.0, "b": 1.0})
        with pytest.raises(DesignError):
            d.rank_of("zzz")


class TestDataset:
    def test_sharp_rule_violation_reports_row(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        recs = make_records(d, 40)
        bad = Record(x=5.0, g=2, w=1, y=0.0)  # 5 < 10 so w must be 0
        with pytest.raises(AssignmentViolationError, match=f"row {len(recs)}"):
            Dataset(recs + [bad], d)

    def test_min_group_size(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        recs = make_records(d, 10)
        with pytest.raises(DataError, match="fewer than"):
            Dataset(recs, d, min_group_size=30)
        ds = Dataset(recs, d, min_group_size=5)
        assert len(ds) == 20

    def test_arrays_immutable(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        ds = Dataset(make_records(d), d)
        with pytest.raises(ValueError):
            ds.x[0] = 99.0

    def test_boundary_record_is_treated(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        recs = make_records(d, 40)
        recs.append(Record(x=10.0, g=2, w=1, y=0.0))
        ds = Dataset(recs, d)
        assert ds.w[-1] == 1

    def test_bad_treatment_code(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        recs = make_records(d, 40)
        with pytest.raises(DataError, match="0 or 1"):
            Dataset(recs + [Record(x=1.0, g=1, w=2, y=0.0)], d)


class TestUtility:
    def test_negative_cost_rejected(self):
        with pytest.raises(DataError):
            UtilityConfig(cost=-0.1)

    def test_dataset_utility_outcomes(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        ds = Dataset(make_records(d), d)
        u = ds.utility_outcomes(UtilityConfig(cost=0.5))
        assert np.allclose(u, ds.y - 0.5 * ds.w)
        assert ds.utility_outcomes(None) is ds.y


class TestThresholdPolicy:
    def test_cutoffs_must_lie_in_span(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        with pytest.raises(DesignError, match="outside"):
            ThresholdPolicy({1: -1.0, 2: 5.0}, d)
        with pytest.raises(DesignError, match="outside"):
            ThresholdPolicy({1: 0.0, 2: 10.5}, d)

    def test_missing_group(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        with pytest.raises(DesignError, match="missing"):
            ThresholdPolicy({1: 0.0}, d)

    def test_assign_and_indicator_agree(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        p = ThresholdPolicy({1: 3.0, 2: 7.0}, d)
        assert p.assign(3.0, 1) == 1
        assert p.assign(2.9, 1) == 0
        x = np.array([2.0, 3.0, 7.0])
        assert list(p.indicator(x, 1)) == [False, True, True]
        assert list(p.indicator(x, np.array([2, 2, 2]))) == [False, False, True]

    def test_baseline_policy_matches_design(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        assert baseline_policy(d).cutoffs == {1: 0.0, 2: 10.0}


class TestLoadAndSerialize:
    def test_header_case_and_order_insensitive(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        body = serialize_dataset(Dataset(make_records(d), d))
        lines = body.splitlines()
        header = "Y,W,G,X"
        rows = [",".join(r.split(",")[::-1]) for r in lines[1:]]
        shuffled = "\n".join([header] + rows)
        ds = load_dataset(io.StringIO(shuffled), d)
        assert len(ds) == 80

    def test_missing_column_named(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        with pytest.raises(DataError, match="'g'"):
            load_dataset(io.StringIO("x,w,y\n1,1,2\n"), d)

    def test_unknown_group_reports_row(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        base = serialize_dataset(Dataset(make_records(d), d))
        broken = base + "1.0,7,1,0.0\n"
        with pytest.raises(DesignError, match="row 81"):
            load_dataset(io.StringIO(broken), d)

    def test_numeric_parse_error_reports_row(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        base = serialize_dataset(Dataset(make_records(d), d))
        broken = base + "oops,1,1,0.0\n"
        with pytest.raises(DataError, match="row 81"):
            load_dataset(io.StringIO(broken), d)

    def test_files_opened_from_paths_are_closed(self, tmp_path, monkeypatch):
        d = StudyDesign({1: 0.0, 2: 10.0})
        body = serialize_dataset(Dataset(make_records(d), d))
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(body)
        bad.write_text(body + "oops,1,1,0.0\n")
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(core, "open", recording_open, raising=False)
        assert len(load_dataset(good, d)) == 80
        with pytest.raises(DataError, match="row 81"):
            load_dataset(str(bad), d)
        assert len(handles) == 2
        assert all(fh.closed for fh in handles)

    def test_binary_stream_left_open(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        buf = io.BytesIO(serialize_dataset(Dataset(make_records(d), d)).encode("utf-8"))
        assert len(load_dataset(buf, d)) == 80
        gc.collect()
        assert not buf.closed

    def test_empty_input(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        with pytest.raises(DataError, match="empty"):
            load_dataset(io.StringIO(""), d)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_roundtrip_exact(self, seed):
        d = StudyDesign({1: 0.0, 2: 10.0})
        ds = Dataset(make_records(d, 35, seed=seed), d)
        again = load_dataset(io.StringIO(serialize_dataset(ds)), d)
        assert np.array_equal(again.x, ds.x)
        assert np.array_equal(again.y, ds.y)
        assert np.array_equal(again.w, ds.w)
        assert np.array_equal(again.rank, ds.rank)

    def test_string_labels_roundtrip(self):
        d = StudyDesign({"lo": -1.0, "hi": 1.0})
        ds = Dataset(make_records(d), d)
        again = load_dataset(io.StringIO(serialize_dataset(ds)), d)
        assert again.records[0].g in ("lo", "hi")
