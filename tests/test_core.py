import gc
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bf_dataset_error
from rdsafe import core
from rdsafe.core import (
    AssignmentViolationError,
    DataError,
    Dataset,
    DesignError,
    StudyDesign,
    ThresholdPolicy,
    baseline_policy,
    load_dataset,
    serialize_dataset,
)


def make_columns(design, n_per_group=40, seed=0):
    """Columns (x, g, w, y) of valid records, n_per_group per group."""
    rng = np.random.default_rng(seed)
    parts = []
    for label, cut in design.cutoffs.items():
        x = rng.uniform(cut - 50, cut + 50, n_per_group)
        parts.append((x, np.full(n_per_group, label), (x >= cut).astype(int),
                       rng.normal(size=n_per_group)))
    return [np.concatenate(col) for col in zip(*parts)]


def with_row(columns, row):
    """The columns with one more record (x, g, w, y) at the end."""
    return [np.append(col, value) for col, value in zip(columns, row)]


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
        cols = make_columns(d, 40)
        bad = (5.0, 2, 1, 0.0)  # 5 < 10 so w must be 0
        with pytest.raises(AssignmentViolationError, match=f"row {len(cols[0])}"):
            Dataset(*with_row(cols, bad), d)

    def test_min_group_size(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        cols = make_columns(d, 10)
        with pytest.raises(DataError, match="fewer than"):
            Dataset(*cols, d, min_group_size=30)
        ds = Dataset(*cols, d, min_group_size=5)
        assert len(ds) == 20

    def test_arrays_immutable(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        ds = Dataset(*make_columns(d), d)
        with pytest.raises(ValueError):
            ds.x[0] = 99.0

    def test_boundary_record_is_treated(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        ds = Dataset(*with_row(make_columns(d, 40), (10.0, 2, 1, 0.0)), d)
        assert ds.w[-1] == 1

    def test_bad_treatment_code(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        with pytest.raises(DataError, match="0 or 1"):
            Dataset(*with_row(make_columns(d, 40), (1.0, 1, 2, 0.0)), d)


    def test_columns_of_one_length(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        with pytest.raises(DataError, match="one length"):
            Dataset([1.0, 11.0], [1, 2], [0, 1], [0.0], d, min_group_size=1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_checks_match_per_record_reference(self, data):
        d = StudyDesign({"a": 0.0, 2: 10.0})
        n = data.draw(st.integers(0, 8))
        x = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 5.0, 10.0, 12.0, np.nan, np.inf]),
                               min_size=n, max_size=n))
        y = data.draw(st.lists(st.sampled_from([0.5, -2.0, 3.0, np.nan, -np.inf]),
                               min_size=n, max_size=n))
        g = data.draw(st.lists(st.sampled_from(["a", 2, "a", 2, "b", 1, "2"]),
                               min_size=n, max_size=n))
        # mostly the sharp rule's w, sometimes the other arm or an invalid code
        w = [data.draw(st.sampled_from([int(xi >= d.cutoffs.get(gi, 0.0))] * 4 + [0, 1, 2]))
             for xi, gi in zip(x, g)]
        min_group_size = data.draw(st.integers(0, 3))
        want = bf_dataset_error(x, g, w, y, d, min_group_size)
        if want is None:
            ds = Dataset(x, g, w, y, d, min_group_size=min_group_size)
            assert ds.rank.tolist() == [d.rank_of(gi) for gi in g]
            return
        with pytest.raises(want[0]) as exc:
            Dataset(np.array(x), np.array(g, dtype=object), np.array(w), np.array(y), d,
                    min_group_size=min_group_size)
        assert (type(exc.value), str(exc.value)) == want


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
        assert list(p.indicator(np.array([2.9, 3.0]), d.rank_of(1))) == [False, True]
        x = np.array([2.0, 3.0, 7.0])
        assert list(p.indicator(x, 1)) == [False, True, True]
        assert list(p.indicator(x, np.array([2, 2, 2]))) == [False, False, True]

    def test_baseline_policy_matches_design(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        assert baseline_policy(d).cutoffs == {1: 0.0, 2: 10.0}


class TestLoadAndSerialize:
    def test_header_case_and_order_insensitive(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        body = serialize_dataset(Dataset(*make_columns(d), d))
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
        base = serialize_dataset(Dataset(*make_columns(d), d))
        broken = base + "1.0,7,1,0.0\n"
        with pytest.raises(DesignError, match="row 81"):
            load_dataset(io.StringIO(broken), d)

    def test_numeric_parse_error_reports_row(self):
        d = StudyDesign({1: 0.0, 2: 10.0})
        base = serialize_dataset(Dataset(*make_columns(d), d))
        broken = base + "oops,1,1,0.0\n"
        with pytest.raises(DataError, match="row 81"):
            load_dataset(io.StringIO(broken), d)

    def test_files_opened_from_paths_are_closed(self, tmp_path, monkeypatch):
        d = StudyDesign({1: 0.0, 2: 10.0})
        body = serialize_dataset(Dataset(*make_columns(d), d))
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
        buf = io.BytesIO(serialize_dataset(Dataset(*make_columns(d), d)).encode("utf-8"))
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
        ds = Dataset(*make_columns(d, 35, seed=seed), d)
        again = load_dataset(io.StringIO(serialize_dataset(ds)), d)
        assert np.array_equal(again.x, ds.x)
        assert np.array_equal(again.y, ds.y)
        assert np.array_equal(again.w, ds.w)
        assert np.array_equal(again.rank, ds.rank)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from(["lo", 7])), max_size=40))
    def test_roundtrip_bit_exact(self, rows):
        d = StudyDesign({"lo": -1.0, 7: 1.0})
        x, y, g = (list(col) for col in zip(*rows)) if rows else ([], [], [])
        w = [int(xi >= d.cutoffs[gi]) for xi, gi in zip(x, g)]
        ds = Dataset(x, g, w, y, d, min_group_size=0)
        again = load_dataset(io.StringIO(serialize_dataset(ds)), d, min_group_size=0)
        for name in ("x", "y", "w", "rank"):
            assert getattr(again, name).tobytes() == getattr(ds, name).tobytes()

    def test_string_labels_roundtrip(self):
        d = StudyDesign({"lo": -1.0, "hi": 1.0})
        ds = Dataset(*make_columns(d), d)
        again = load_dataset(io.StringIO(serialize_dataset(ds)), d)
        assert again.rank.tolist() == ds.rank.tolist()
        assert serialize_dataset(again) == serialize_dataset(ds)
        assert serialize_dataset(ds).splitlines()[1].split(",")[1] == "lo"


def load(text, design=StudyDesign({1: 0.0, 2: 10.0})):
    return load_dataset(io.StringIO(text), design, min_group_size=1)


def raises_exactly(exc_type, message):
    return pytest.raises(exc_type, match="^" + re.escape(message) + "$")


class TestLoaderRules:
    """Parsing rules of `load_dataset`. Parse errors name the 1-based data
    line, blank lines included; `Dataset` errors the 0-based record."""

    def test_whitespace_around_every_field(self):
        ds = load("x,g,w,y\n -1.5 , 1 , 0 , 2.5 \n\t12.0\t,\t2\t,\t1\t,\t-0.25\t\n")
        assert ds.x.tolist() == [-1.5, 12.0]
        assert ds.rank.tolist() == [1, 2]
        assert ds.w.tolist() == [0, 1]
        assert ds.y.tolist() == [2.5, -0.25]

    def test_w_is_an_integer_literal(self):
        assert load("x,g,w,y\n11.0,2,+1,0.0\n-1.0,1,-0,0.0\n").w.tolist() == [1, 0]
        with raises_exactly(DataError, "row 2: could not parse numeric field "
                                       "(invalid literal for int() with base 10: '1.0')"):
            load("x,g,w,y\n-1.0,1,0,0.0\n11.0,2,1.0,0.0\n")

    def test_blank_rows_skipped_but_counted(self):
        body = "x,g,w,y\n\n-1.0,1,0,0.0\n   \n , , , \n11.0,2,1,0.0\n"
        assert load(body).x.tolist() == [-1.0, 11.0]
        with raises_exactly(DataError, "row 6: could not parse numeric field "
                                       "(could not convert string to float: 'oops')"):
            load(body + "oops,1,0,0.0\n")

    def test_short_row(self):
        with raises_exactly(DataError, "row 2: expected 4 fields, got 2"):
            load("x,g,w,y\n-1.0,1,0,0.0\n11.0,2\n12.0,2,1,0.0\n")

    def test_label_matching(self):
        # "01" is no key as text, but int("01") is
        assert load("x,g,w,y\n-1.0,01,0,0.0\n11.0, 2 ,1,0.0\n").rank.tolist() == [1, 2]
        mixed = StudyDesign({"a": 0.0, 2: 10.0})
        ds = load("x,g,w,y\n-1.0,a,0,0.0\n11.0,2,1,0.0\n12.0,02,1,0.0\n", mixed)
        assert ds.rank.tolist() == [1, 2, 2]
        assert serialize_dataset(ds) == "x,g,w,y\n-1.0,a,0,0.0\n11.0,2,1,0.0\n12.0,2,1,0.0\n"
        with raises_exactly(DesignError, "row 2: unknown group 'A'; design groups are ['a', 2]"):
            load("x,g,w,y\n-1.0,a,0,0.0\n-2.0, A ,0,0.0\n", mixed)

    @pytest.mark.parametrize("row, message", [
        ("nan,1,0,0.0", "running variable x must be finite, got nan (row 1)"),
        ("inf,2,1,0.0", "running variable x must be finite, got inf (row 1)"),
        ("-1.0,1,0,NaN", "outcome y must be finite, got nan (row 1)"),
        ("-1.0,1,0,-inf", "outcome y must be finite, got -inf (row 1)"),
    ])
    def test_nonfinite_values(self, row, message):
        with raises_exactly(DataError, message):
            load(f"x,g,w,y\n-1.0,1,0,0.0\n\n{row}\n")

    def test_lowest_bad_row_is_named(self):
        rows = ["-1.0,1,0,0.0", "-2.0,1,0,oops", "-3.0,9,0,0.0", "bad,1,0,0.0", "-4.0,1"]
        errors = [(DataError, "row 2: could not parse numeric field "
                              "(could not convert string to float: 'oops')"),
                  (DesignError, "row 3: unknown group '9'; design groups are [1, 2]"),
                  (DataError, "row 4: could not parse numeric field "
                              "(could not convert string to float: 'bad')"),
                  (DataError, "row 5: expected 4 fields, got 2")]
        for k, (exc_type, message) in enumerate(errors):
            # the rows before the one named are made valid
            body = ["x,g,w,y"] + ["-1.0,1,0,0.0"] * (k + 1) + rows[k + 1:]
            with raises_exactly(exc_type, message):
                load("\n".join(body) + "\n")

    def test_first_failing_check_of_a_row_is_named(self):
        int_error = "invalid literal for int() with base 10: 'x1'"
        for row, message in [
            ("oops,9,x1,zz", "could not convert string to float: 'oops'"),
            ("-1.0,9,x1,zz", int_error),
            ("-1.0,9,0,zz", "could not convert string to float: 'zz'"),
        ]:
            with raises_exactly(DataError, f"row 2: could not parse numeric field ({message})"):
                load(f"x,g,w,y\n-1.0,1,0,0.0\n{row}\n")
        with raises_exactly(DataError, "running variable x must be finite, got nan (row 0)"):
            load("x,g,w,y\nnan,1,2,inf\n-1.0,1,2,0.0\n")
        with raises_exactly(DataError, "treatment w must be 0 or 1, got 2 (row 0)"):
            load("x,g,w,y\n5.0,2,2,0.0\nnan,1,0,0.0\n")

    def test_sharp_rule_violation_from_file(self):
        with raises_exactly(AssignmentViolationError,
                            "row 1: group 2 has cutoff 10.0 and x=5.0, so the sharp rule "
                            "implies w=0, but w=1 was observed"):
            load("x,g,w,y\n-1.0,1,0,0.0\n\n5.0,2,1,0.0\n")
