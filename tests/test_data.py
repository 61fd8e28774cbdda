import csv
import io
import json
import re
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crl import (
    BinarizationManifest,
    BinaryDataset,
    DataError,
    apply_manifest,
    binarize,
    load_predictions,
    load_table,
    split_folds,
)
from crl import data as data_module
from crl.data import (
    ManifestColumn,
    RawTable,
    _csv_columns,
    _read_rows,
    quantile_edges,
    read_json,
    synth_oracle,
    unpack_bool,
    write_json,
    write_rows,
)
from oracles import (
    decode,
    decoded,
    encode,
    raw_columns,
    reference_apply,
    reference_binarize,
    reference_edges,
    reference_fit_error,
    reference_labels,
    reference_numeric_error,
    reference_read,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadTable:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path, "t.csv", "f0,f1,f2,y\n1,a,3.5,0\n2,b,4.5,1\n3,a,5.5,1\n4,b,6.5,0\n")
        table = load_table(p, "y")
        assert table.n_rows == 4
        assert list(table.columns) == ["f0", "f1", "f2"]
        _, manifest = binarize(table)
        kinds = {c.name: c.kind for c in manifest.columns}
        assert kinds == {"f0": "numeric", "f1": "categorical", "f2": "numeric"}

    def test_declared_positive_value(self, tmp_path):
        p = write(tmp_path, "t.csv", "x,y\n1,yes\n2,no\n3,yes\n")
        table = load_table(p, "y", positive_value="yes")
        assert list(table.labels) == [1, 0, 1]

    def test_positive_value_never_taken_is_data_error(self, tmp_path):
        p = write(tmp_path, "t.csv", "x,y\n1,1\n2,0\n")
        with pytest.raises(DataError, match="'y'.*'yes'"):
            load_table(p, "y", positive_value="yes")

    @pytest.mark.parametrize("text", ["x,y\n1,no\n", "x,y\n1,no\n2,no\n"])
    def test_one_row_or_one_class_without_positive_value_is_valid(self, tmp_path, text):
        table = load_table(write(tmp_path, "t.csv", text), "y", positive_value="yes")
        assert list(table.labels) == [0] * table.n_rows

    def test_default_positive_is_lexicographically_larger(self, tmp_path):
        p = write(tmp_path, "t.csv", "x,y\n1,yes\n2,no\n")
        table = load_table(p, "y")
        assert table.positive_value == "yes"
        assert list(table.labels) == [1, 0]

    def test_zero_one_labels_kept(self, tmp_path):
        p = write(tmp_path, "t.csv", "x,y\n1,0\n2,1\n")
        assert list(load_table(p, "y").labels) == [0, 1]

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "t.csv", "a,b,c\n1,2,3\n1,2,3,4\n")
        with pytest.raises(DataError, match="ragged row"):
            load_table(p, "c")

    def test_ragged_row_line_counts_records_after_blank_and_multi_line_cells(self, tmp_path):
        # line 3 is blank, the record at line 4 spans two physical lines, and
        # the first bad record (line 5) is named rather than the later one
        text = 'a,b,y\n1,2,0\n\n"x\ny",3,1\n4,5\n6,7,8,9\n'
        p = write(tmp_path, "t.csv", text)
        message = rf"^{re.escape(str(p))}: ragged row at line 5 \(2 fields, expected 3\)$"
        with pytest.raises(DataError, match=message):
            load_table(p, "y")
        with pytest.raises(DataError, match=message):
            load_predictions(p, 4, column="y")

    def test_missing_label_column(self, tmp_path):
        p = write(tmp_path, "t.csv", "a,b\n1,2\n")
        with pytest.raises(DataError, match="missing label column"):
            load_table(p, "y")

    def test_non_binary_label(self, tmp_path):
        p = write(tmp_path, "t.csv", "x,y\n1,a\n2,b\n3,c\n")
        with pytest.raises(DataError, match="non-binary label"):
            load_table(p, "y")

    @pytest.mark.parametrize("positive_value", [None, "1", "0"])
    def test_blank_label_cell_is_data_error(self, tmp_path, positive_value):
        # a blank cell is missing everywhere else; as a label it became class 0
        p = write(tmp_path, "t.csv", "x,y\n1,1\n2,\n3,1\n")
        message = rf"^{re.escape(str(p))}: label column 'y' has 1 blank cell\(s\)$"
        with pytest.raises(DataError, match=message):
            load_table(p, "y", positive_value=positive_value)

    def test_alternate_delimiter(self, tmp_path):
        p = write(tmp_path, "t.tsv", "x\ty\n1\t0\n2\t1\n")
        assert load_table(p, "y", delimiter="\t").n_rows == 2


def bin_indices(values, q):
    """Each value's bin index under a numeric manifest column fitted on the values."""
    cells = encode(map(repr, values))
    mcol, fitted = ManifestColumn.fit("v", cells, q)
    codes = mcol.codes(cells)
    assert fitted == codes
    return np.frombuffer(codes, dtype=np.uint8)


class TestQuantileBin:
    def test_seven_distinct_values_fill_seven_bins(self):
        codes = bin_indices([1, 2, 3, 4, 5, 6, 7], q=7)
        assert sorted(set(codes.tolist())) == [0, 1, 2, 3, 4, 5, 6]

    def test_constant_column_single_code(self):
        codes = bin_indices([5, 5, 5, 5], q=7)
        assert set(codes.tolist()) == {0}

    def test_outlier_gets_highest_code(self):
        codes = bin_indices([1, 1, 1, 1, 1, 1, 10], q=7)
        assert codes[-1] == max(codes)
        assert len(set(codes[:-1].tolist())) == 1
        assert codes[0] < codes[-1]

    def test_codes_within_range(self):
        codes = bin_indices(list(range(100)), q=7)
        assert codes.min() >= 0 and codes.max() < 7

    def test_edges_deduplicated(self):
        edges = quantile_edges([(1.0, 3), (2.0, 1)], q=7)
        assert edges == sorted(set(edges))

    @given(
        cells=st.lists(
            st.one_of(
                st.sampled_from(["-0", "0", "0.0", "-0.0", "1.0", "1", "-1", "2.5", "-3e2"]),
                st.integers(-40, 40).map(str),
                st.floats(-1e6, 1e6, allow_nan=False).map(repr),
            ),
            min_size=1,
            max_size=300,
        ),
        q=st.integers(2, 12),
    )
    @example(cells=["7"] * 5, q=7)
    @example(cells=["-0", "0", "-0.0", "0", "1.0", "1"], q=4)
    @example(cells=["-5", "-2", "-2", "-1"], q=3)
    @settings(max_examples=300, deadline=None)
    def test_edges_equal_numpy_quantile(self, cells, q):
        # bit for bit np.quantile's, but a zero edge is +0.0: numpy's partial
        # sort leaves the sign of an interpolated zero to where a zero lands
        floats = [float(c) for c in cells]
        want = []
        for e in np.quantile(floats, [k / q for k in range(1, q)]):
            if not want or e > want[-1]:
                want.append(float(e) + 0.0)
        counts = {}
        for x in floats:
            counts[x] = counts.get(x, 0) + 1
        assert list(map(repr, quantile_edges(counts.items(), q))) == list(map(repr, want))
        fitted, _ = ManifestColumn.fit("v", encode(cells), q)
        assert list(map(repr, fitted.edges)) == list(map(repr, want))

    @pytest.mark.parametrize("distinct", [1, 2, 32, 33, 256, 257])
    @pytest.mark.parametrize("blanks", [0, 5])
    def test_byte_counts_fit_as_a_counter(self, monkeypatch, distinct, blanks):
        # a column of few distinct cells is counted with bytes.count on the
        # indices' low bytes, a larger one with a Counter; both fit alike
        rng = np.random.default_rng(distinct + blanks)
        values = [repr(x) for x in rng.uniform(-50.0, 50.0, distinct).tolist()]
        rows = values + [values[i] for i in rng.zipf(1.5, 900) % distinct] + [""] * blanks
        column = encode(rng.permutation(rows).tolist())
        got = ManifestColumn.fit("v", column, 7)
        monkeypatch.setattr(
            data_module,
            "_cell_counts",
            lambda n, index: list(map(Counter(index).__getitem__, range(n))),
        )
        want = ManifestColumn.fit("v", column, 7)
        assert got == want
        assert list(map(repr, got[0].edges)) == list(map(repr, want[0].edges))
        assert got[0].kind == "numeric"
        assert len(column[0]) == distinct + (blanks > 0)

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
        ),
        q=st.integers(min_value=2, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, values, q):
        codes = bin_indices(values, q=q)
        order = np.argsort(values, kind="stable")
        sorted_codes = codes[order]
        assert (np.diff(sorted_codes) >= 0).all()


class TestBinarize:
    def test_one_hot_two_categories(self, tmp_path):
        p = write(tmp_path, "t.csv", "c,y\nA,0\nB,1\nA,0\nB,1\n")
        data, _ = binarize(load_table(p, "y"))
        assert data.n_features == 2
        assert data.feature_names == ("c=A", "c=B")
        assert (np.array(data.matrix).sum(axis=1) == 1).all()

    def test_feature_count_additivity(self, tmp_path):
        p = write(tmp_path, "t.csv", "c1,c2,y\nA,x,0\nB,y,1\nC,x,0\n")
        data, _ = binarize(load_table(p, "y"))
        assert data.n_features == 5

    def test_missing_value_gets_own_category(self, tmp_path):
        p = write(tmp_path, "t.csv", "c,y\nA,0\n,1\nB,0\n")
        data, _ = binarize(load_table(p, "y"))
        assert "c=<missing>" in data.feature_names
        assert (np.array(data.matrix).sum(axis=1) == 1).all()

    def test_numeric_column_binned(self, tmp_path):
        rows = "\n".join(f"{v},{v % 2}" for v in range(1, 22))
        p = write(tmp_path, "t.csv", "v,y\n" + rows + "\n")
        data, manifest = binarize(load_table(p, "y"), quantiles=7)
        assert data.n_features == 7
        assert manifest.columns[0].edges is not None
        assert (np.array(data.matrix).sum(axis=1) == 1).all()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_hot_exhaustive_on_random_tables(self, data_strategy):
        n = data_strategy.draw(st.integers(min_value=2, max_value=20))
        cats = data_strategy.draw(
            st.lists(st.sampled_from(["a", "b", "c", ""]), min_size=n, max_size=n)
        )
        nums = data_strategy.draw(
            st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n)
        )
        labels = [str(i % 2) for i in range(n)]
        text = "c,v,y\n" + "\n".join(f"{c},{v},{y}" for c, v, y in zip(cats, nums, labels))
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as d:
            p = pathlib.Path(d) / "t.csv"
            p.write_text(text + "\n")
            dataset, _ = binarize(load_table(p, "y"))
        matrix = np.array(dataset.matrix)
        for prefix in ("c=", "v="):
            cols = [j for j, name in enumerate(dataset.feature_names) if name.startswith(prefix)]
            assert (matrix[:, cols].sum(axis=1) == 1).all()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_accepted_tables_have_unique_names_that_round_trip(self, data_strategy):
        # names and values built from "a", "b", "c" and "=" often spell one feature twice
        n = data_strategy.draw(st.integers(min_value=1, max_value=6))
        names = data_strategy.draw(
            st.lists(st.sampled_from(["a", "b", "a=b", "b=c", "="]), min_size=1, max_size=4,
                     unique=True)
        )
        cell = st.sampled_from(["", "b", "c", "b=c", "=c", "1", "2"])
        columns = {
            name: encode(data_strategy.draw(st.lists(cell, min_size=n, max_size=n)))
            for name in names
        }
        table = RawTable(columns, "y", np.arange(n, dtype=np.uint8) % 2, "1")
        try:
            dataset, _ = binarize(table)
        except DataError as exc:
            assert "both give a feature named" in str(exc)
            return
        assert len(set(dataset.feature_names)) == dataset.n_features
        assert [dataset.name_index[name] for name in dataset.feature_names] == list(
            range(dataset.n_features)
        )


class TestManifest:
    def test_round_trip_reproduces_dataset(self, tmp_path):
        p = write(tmp_path, "t.csv", "v,c,y\n1,A,0\n2,B,1\n3,A,0\n4,B,1\n5,A,0\n")
        table = load_table(p, "y")
        data, manifest = binarize(table)
        manifest.save(tmp_path / "m.json")
        loaded = BinarizationManifest.load(tmp_path / "m.json")
        again = apply_manifest(table, loaded)
        assert again.feature_names == data.feature_names
        assert again.feature_bits == data.feature_bits

    def test_unseen_category_sets_no_bit(self, tmp_path):
        p1 = write(tmp_path, "train.csv", "c,y\nA,0\nB,1\n")
        _, manifest = binarize(load_table(p1, "y"))
        p2 = write(tmp_path, "test.csv", "c,y\nA,0\nC,1\n")
        test_data = apply_manifest(load_table(p2, "y"), manifest)
        assert sum(test_data.matrix[1]) == 0

    def test_manifest_feature_names_match(self, tmp_path):
        p = write(tmp_path, "t.csv", "c,y\nA,0\nB,1\n")
        data, manifest = binarize(load_table(p, "y"))
        assert tuple(manifest.feature_names()) == data.feature_names

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"edges": [1.5, 1.5]}, "strictly ascending"),
            ({"edges": [float("nan"), 2.5]}, "finite"),
            ({"edges": [1.5, float("inf")]}, "finite"),
            ({"edges": None}, "finite"),
        ],
    )
    def test_from_obj_refuses_edges_quantile_edges_never_writes(self, tmp_path, change, message):
        p = write(tmp_path, "t.csv", "v,y\n1,0\n2,1\n3,0\n4,1\n5,0\n")
        obj = binarize(load_table(p, "y"), quantiles=3)[1].to_obj()
        assert obj["columns"][0]["edges"] == [2.333333333333333, 3.6666666666666665]
        obj["columns"][0].update(change)
        with pytest.raises(DataError, match=f"'v'.*{message}"):
            BinarizationManifest.from_obj(obj)

    @pytest.mark.parametrize("edges", ["xyz", [1.5], []])
    def test_from_obj_refuses_edges_on_a_categorical_column(self, tmp_path, edges):
        # only a numeric column reads its edges, so these loaded and were ignored
        p = write(tmp_path, "t.csv", "c,y\nA,0\nB,1\n")
        obj = binarize(load_table(p, "y"))[1].to_obj()
        assert obj["columns"][0]["kind"] == "categorical"
        obj["columns"][0]["edges"] = edges
        stored = re.escape(repr(edges))
        message = rf"^manifest column 'c': categorical edges must be null, not {stored}$"
        with pytest.raises(DataError, match=message):
            BinarizationManifest.from_obj(obj)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.update(label_column=7), "label_column 7 is not a string"),
            (lambda m: m.update(positive_value=1), "positive_value 1 is not a string"),
            (lambda m: m["columns"][0].update(name=3), "name 3 is not a string"),
            (lambda m: m["columns"][0]["categories"].append(None), "list of strings"),
            (lambda m: m["columns"][0].update(categories="AB"), "list of strings"),
        ],
        ids=["label-column", "positive-value", "column-name", "category", "categories-str"],
    )
    def test_from_obj_requires_strings(self, tmp_path, edit, message):
        p = write(tmp_path, "t.csv", "c,y\nA,0\nB,1\n")
        obj = binarize(load_table(p, "y"))[1].to_obj()
        edit(obj)
        with pytest.raises(DataError, match=message):
            BinarizationManifest.from_obj(obj)

    def test_binarize_refuses_one_quantile_without_numeric_columns(self, tmp_path):
        # the manifest records quantiles even where no column is binned; from_obj refuses 1
        p = write(tmp_path, "t.csv", "c,y\nA,0\nB,1\n")
        with pytest.raises(ValueError, match="quantiles must be >= 2"):
            binarize(load_table(p, "y"), quantiles=1)


# Categorical values whose code points sort just before, at and after
# "<missing>", plus numeric-looking strings that a stray "x" keeps categorical.
AROUND_MISSING = ["", "<missing>", "<", "<m", "<missinf", "<missingA", ";", "=", "A", "a"]
NUMERIC_LOOKING = ["", "1", "01", "2", "10", "1.5", "-3", "x"]


@st.composite
def mixed_columns(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    numeric_cell = st.one_of(
        st.just(""),
        st.integers(-5, 5).map(str),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(repr),
    )
    cell = draw(
        st.lists(
            st.sampled_from(
                [numeric_cell, st.sampled_from(AROUND_MISSING), st.sampled_from(NUMERIC_LOOKING)]
            ),
            min_size=1,
            max_size=4,
        )
    )
    return [draw(st.lists(c, min_size=n, max_size=n)) for c in cell]


def load_columns(columns, labels, positive_value=None):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"c{j}" for j in range(len(columns))] + ["y"])
            writer.writerows(zip(*columns, labels))
        return load_table(path, "y", positive_value=positive_value)


@st.composite
def fit_and_held_out_columns(draw):
    """Quantiles, the columns of a fit table A, and the columns of a held-out
    table B that A's manifest is applied to.

    Each column of B holds, besides drawn cells, a blank (which A may lack),
    under a categorical column a category A never has, and under a numeric
    column a value in every bin of A's reference edges (some of which no A
    row may fall in) and values beyond A's range. Every cell of B may be
    padded with blanks that the reader strips.
    """
    quantiles = draw(st.integers(min_value=2, max_value=6))
    fit = draw(mixed_columns())
    numeric_cell = st.one_of(
        st.just(""),
        st.sampled_from([0, 10]).map(str),
        st.integers(-20, 20).map(str),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(repr),
    )
    other_cell = st.sampled_from(AROUND_MISSING + NUMERIC_LOOKING + ["unseen", "A "])
    held_out = []
    for values in fit:
        edges = reference_edges(values, quantiles)
        if edges is None:
            forced = ["", "never-fitted"]
            cell = other_cell
        else:
            middles = [(a + b) / 2 for a, b in zip(edges, edges[1:])]
            forced = ["", *map(repr, [edges[0] - 1, *edges, *middles, edges[-1] + 1])]
            cell = numeric_cell
        held_out.append(draw(st.lists(cell, max_size=8)) + forced)
    n = max(map(len, held_out))
    padding = st.sampled_from(["", " ", "  ", "\t"])
    return quantiles, fit, [
        [draw(padding) + v + draw(padding) for v in col + [""] * (n - len(col))]
        for col in held_out
    ]


class TestBinarizationPath:
    @given(columns=mixed_columns(), quantiles=st.integers(min_value=2, max_value=9))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_row_reference_and_manifest_round_trip(self, columns, quantiles):
        n = len(columns[0])
        table = load_columns(columns, [str(i % 2) for i in range(n)])
        data, manifest = binarize(table, quantiles=quantiles)

        matrix, names = reference_binarize(raw_columns(table), quantiles)
        assert data.feature_names == tuple(names)
        assert (data.matrix == matrix).all()

        text = json.dumps(manifest.to_obj(), allow_nan=False)
        again = apply_manifest(table, BinarizationManifest.from_obj(json.loads(text)))
        assert again.feature_names == data.feature_names
        assert again.feature_bits == data.feature_bits

        start = 0
        for mcol in manifest.columns:
            stop = start + len(mcol.categories)
            assert (matrix[:, start:stop].sum(axis=1) == 1).all()
            start = stop
        assert start == data.n_features

    @given(case=fit_and_held_out_columns())
    # edges 0, 5, 10: no fit row is in bin1 or bin3, and A has no blank
    @example(
        case=(
            4,
            [["0", "0", "10", "10"], ["a", "b", "a", "b"]],
            [[" 3", "11 ", ""], ["c", "\ta", ""]],
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_held_out_table_matches_per_row_reference(self, case):
        # a manifest fitted on table A labels table B cell by cell as the
        # reference does; cells in categories A never produced set no bit
        quantiles, fit, held_out = case
        fit_table = load_columns(fit, [str(i % 2) for i in range(len(fit[0]))])
        _, manifest = binarize(fit_table, quantiles=quantiles)
        n = len(held_out[0])
        labels = [str(i % 2) for i in range(n)]
        table = load_columns(held_out, labels, manifest.positive_value)
        data = apply_manifest(table, manifest)

        names = list(table.columns)
        matrix, ref_names = reference_apply(
            raw_columns(fit_table), list(zip(names, held_out)), quantiles
        )
        assert data.feature_names == tuple(ref_names)
        assert (data.matrix == matrix).all()
        assert list(data.labels) == [int(y == manifest.positive_value) for y in labels]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_columns_of_more_than_255_categories(self, seed):
        # a row code takes two bytes once a column has 255 categories or more
        rng = np.random.default_rng(seed)
        n = 2000
        cat = [f"k{v}" for v in rng.integers(0, 400, n)]
        num = [repr(round(float(v), 3)) for v in rng.normal(size=n)]
        num[::97] = [""] * len(num[::97])
        fit = [cat, num]
        table = load_columns(fit, [str(i % 2) for i in range(n)])
        data, manifest = binarize(table, quantiles=900)
        assert [c.width for c in manifest.columns] == [2, 2]
        matrix, names = reference_binarize(raw_columns(table), 900)
        assert data.feature_names == tuple(names)
        assert (np.array(data.matrix) == matrix).all()
        rows = sorted(rng.choice(n, size=700, replace=False).tolist())
        assert data.subset(rows).matrix == tuple(data.matrix[i] for i in rows)

        held_out = [["k1", "k0", "new", ""], ["0.5", "", "-9.75", "1e9"]]
        with pytest.warns(UserWarning, match="unseen at fit"):
            again = apply_manifest(load_columns(held_out, ["0", "1", "0", "1"]), manifest)
        matrix, _ = reference_apply(
            raw_columns(table), list(zip(table.columns, held_out)), 900
        )
        assert (np.array(again.matrix) == matrix).all()


class TestInputHardening:
    def test_first_non_numeric_cell_named(self, tmp_path):
        _, manifest = binarize(load_table(write(tmp_path, "a.csv", "a,y\n1,0\n2,1\n"), "y"))
        held_out = load_table(write(tmp_path, "b.csv", "a,y\n2,0\n,1\nfoo,0\nbar,1\n"), "y")
        message = r"^numeric column 'a': could not convert string to float: 'foo'$"
        with pytest.raises(DataError, match=message):
            apply_manifest(held_out, manifest)

    def test_first_non_finite_cell_named(self, tmp_path):
        text = "a,y\n2,0\n,1\ninf,0\nnan,1\n"
        message = r"^numeric column 'a': non-finite value 'inf'$"
        with pytest.raises(DataError, match=message):
            binarize(load_table(write(tmp_path, "a.csv", text), "y"))
        _, manifest = binarize(load_table(write(tmp_path, "b.csv", "a,y\n1,0\n2,1\n"), "y"))
        with pytest.raises(DataError, match=message):
            apply_manifest(load_table(write(tmp_path, "c.csv", text), "y"), manifest)

    def test_non_numeric_cell_under_numeric_manifest_column(self, tmp_path):
        fit = write(tmp_path, "a.csv", "a,y\n1,0\n2,1\n3,0\n4,1\n")
        _, manifest = binarize(load_table(fit, "y"))
        held_out = load_table(write(tmp_path, "b.csv", "a,y\n2,0\nfoo,1\n"), "y")
        with pytest.raises(DataError, match="'a'.*'foo'"):
            apply_manifest(held_out, manifest)

    def test_all_blank_held_out_column_maps_to_missing(self, tmp_path):
        _, manifest = binarize(load_table(write(tmp_path, "a.csv", "a,y\n1,0\n,1\n3,0\n"), "y"))
        held_out = load_table(write(tmp_path, "b.csv", "a,y\n,0\n,1\n"), "y")
        data = apply_manifest(held_out, manifest)
        assert data.feature_names[-1] == "a=<missing>"
        assert data.matrix == ((0, 0, 1),) * 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_is_rejected_at_fit_and_on_reuse(self, tmp_path, cell):
        with pytest.raises(DataError, match=f"'a'.*non-finite value '{cell}'"):
            binarize(load_table(write(tmp_path, "a.csv", f"a,y\n1,0\n{cell},1\n"), "y"))
        _, manifest = binarize(load_table(write(tmp_path, "b.csv", "a,y\n1,0\n2,1\n"), "y"))
        held_out = load_table(write(tmp_path, "c.csv", f"a,y\n{cell},0\n"), "y")
        with pytest.raises(DataError, match="non-finite"):
            apply_manifest(held_out, manifest)

    def test_colliding_feature_names_are_data_error(self, tmp_path):
        # a's value b=c and a=b's value c both spell a=b=c, which name_index mapped to a=b's bit
        table = load_table(write(tmp_path, "t.csv", "a,a=b,y\nb=c,c,0\nx,d,1\n"), "y")
        message = r"^columns 'a' and 'a=b' both give a feature named 'a=b=c'$"
        with pytest.raises(DataError, match=message):
            binarize(table)
        fit = load_table(write(tmp_path, "u.csv", "a,v,y\nb=c,c,0\nx,d,1\n"), "y")
        obj = binarize(fit)[1].to_obj()
        obj["columns"][1]["name"] = "a=b"
        with pytest.raises(DataError, match=message):
            apply_manifest(table, BinarizationManifest.from_obj(obj))

    def test_repeated_feature_name_is_data_error(self):
        with pytest.raises(DataError, match="two features are named 'x'"):
            BinaryDataset.from_bool_matrix([[True, False]], [0], ("x", "x"))

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=300))
    def test_class_masks_split_the_rows_by_label(self, labels):
        data = BinaryDataset.from_bool_matrix(np.ones((len(labels), 1)), labels, ("x",))
        negative, positive = data.class_masks
        assert negative & positive == 0
        assert negative | positive == data.full_mask
        assert positive.bit_count() == sum(data.labels)
        assert list(unpack_bool(positive, data.n_rows)) == [v == 1 for v in labels]

    def test_duplicate_header_name(self, tmp_path):
        p = write(tmp_path, "t.csv", "a,a,b,y\n1,2,3,0\n")
        with pytest.raises(DataError, match="duplicate column name 'a'"):
            load_table(p, "y")


class TestDistinctCellEdgeCases:
    """Each column is coded once per distinct stripped cell; these pin what a
    cell-by-cell reading gave before."""

    @pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
    def test_padded_bad_numeric_cell_before_its_bare_spelling_is_named(self, tmp_path, quote):
        _, manifest = binarize(load_table(write(tmp_path, "a.csv", "a,y\n1,0\n2,1\n"), "y"))
        text = f"a,y\n2,0\n{quote} foo{quote},1\nbar,0\nfoo,1\n"
        held_out = load_table(write(tmp_path, "b.csv", text), "y")
        message = r"^numeric column 'a': could not convert string to float: 'foo'$"
        with pytest.raises(DataError, match=message):
            apply_manifest(held_out, manifest)

    @pytest.mark.parametrize("blank", [" ", "\t", "  "])
    def test_whitespace_only_label_cell_is_blank(self, tmp_path, blank):
        p = write(tmp_path, "t.csv", f"x,y\n1,1\n2,{blank}\n3,\n4,0\n")
        message = rf"^{re.escape(str(p))}: label column 'y' has 2 blank cell\(s\)$"
        with pytest.raises(DataError, match=message):
            load_table(p, "y")

    def test_padded_prediction_cells_read_as_their_values(self, tmp_path):
        p = write(tmp_path, "p.csv", "id,p\n1, 1\n2,0\n3,1 \n4,\t0\n")
        assert list(load_predictions(p, 4, column="p").preds) == [1, 0, 1, 0]

    def test_unseen_cell_warning_is_unchanged_on_padded_spellings(self, tmp_path):
        # the rows of test_cli's one-warning example; the new category is
        # spelled three ways that strip to one cell, and the blank n is "  "
        rng = np.random.default_rng(8)
        rows = [(f"{rng.random():.4f}", "xyz"[rng.integers(3)], i % 2) for i in range(120)]
        fit = write(tmp_path, "d.csv", "n,a,y\n" + "".join(f"{n},{a},{y}\n" for n, a, y in rows))
        _, manifest = binarize(load_table(fit, "y"))
        new = {1: " w", 2: "w ", 40: "w"}
        held_out = [("  " if i == 5 else n, new.get(i, a), y) for i, (n, a, y) in enumerate(rows)]
        text = "n,a,y\n" + "".join(f"{n},{a},{y}\n" for n, a, y in held_out)
        table = load_table(write(tmp_path, "h.csv", text), "y")
        message = r"^cells in a category unseen at fit set no bit: n 1, a 3$"
        with pytest.warns(UserWarning, match=message):
            apply_manifest(table, manifest)


NUMERIC_CELLS = ["", " ", "0", "1", " 1", "1 ", "\t1", "-2.5", "1e3", "007", "3.25"]
BAD_NUMERIC_CELLS = ["inf", " nan", "foo", " foo", "1,5", 'x"']
CATEGORICAL_CELLS = AROUND_MISSING + [" A", "A ", "\tA", "x y", "é", " ", 'q"u', "c,d"]
LABEL_CELLS = ["0", "1", " 1", "0 ", "1"]
BAD_LABEL_CELLS = ["", " ", "yes", "2"]


@st.composite
def coded_tables(draw):
    """Two tables A and B of the same columns, each its cell columns and its labels.

    A column draws from numbers, categories or both, with blanks,
    whitespace-only cells and padded spellings that strip to one cell, some
    of them quoted by ``csv.writer``; a large table may have a column of more
    than 256 distinct cells and an all-distinct one. Some cells are not
    finite numbers, and some labels are blank or not binary.
    """
    rnd = draw(st.randoms(use_true_random=False))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical", "mixed", "many", "distinct"]),
                          min_size=1, max_size=4))
    bad = draw(st.sampled_from([0.0, 0.0, 0.02]))

    def cell(kind, i):
        if kind == "distinct":
            return rnd.choice(["", " ", "k"]) + str(i)
        if kind == "many":
            return rnd.choice(["", " "]) + str(rnd.randrange(5000)) + rnd.choice(["", "\t"])
        if rnd.random() < bad:
            return rnd.choice(BAD_NUMERIC_CELLS)
        pool = {"numeric": NUMERIC_CELLS, "categorical": CATEGORICAL_CELLS}
        return rnd.choice(pool.get(kind, NUMERIC_CELLS + CATEGORICAL_CELLS))

    def table():
        n = rnd.choice([rnd.randint(1, 12)] * 3 + [rnd.randint(300, 330)])
        columns = [[cell(kind, i) for i in range(n)] for kind in kinds]
        labels = [rnd.choice(BAD_LABEL_CELLS if rnd.random() < bad else LABEL_CELLS) for _ in range(n)]
        return columns, labels

    return table(), table()


def write_table(path, columns, labels, quoting):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting)
        writer.writerow([f"c{j}" for j in range(len(columns))] + ["y"])
        writer.writerows(zip(*columns, labels))


def load_or_message(path, positive_value=None):
    """The table and the oracle's cell columns, or None once the label
    column's DataError is checked against the oracle's message."""
    header, cells = reference_read(path)
    expected = reference_labels(path, cells[-1], "y", positive_value)
    if isinstance(expected, str):
        with pytest.raises(DataError) as raised:
            load_table(path, "y", positive_value=positive_value)
        assert str(raised.value) == expected
        return None
    table = load_table(path, "y", positive_value=positive_value)
    columns = list(zip(header[:-1], map(tuple, cells[:-1])))
    assert raw_columns(table) == columns
    assert (list(table.labels), table.positive_value) == expected
    return table, columns


@given(case=coded_tables())
# an all-distinct numeric column, and 280 then 290 distinct categories, ten unseen
@example(
    case=(
        ([[f" {i}" for i in range(300)], [f"k{i % 280}" for i in range(300)]], ["0", "1"] * 150),
        ([[str(i) for i in range(290)], [f"k{i}" for i in range(290)]], ["1", "0"] * 145),
    )
)
# the first of two non-finite cells is named, at fit and on a held-out table
@example(case=(([["1", " nan", "2", "inf"]], ["0", "1", "0", "1"]), ([["1"]], ["0"])))
@example(case=(([["1", "2", "3"]], ["0", "1", "0"]), ([["2", "inf", " nan"]], ["0", "1", "1"])))
@settings(max_examples=100, deadline=None)
def test_reader_and_coder_match_the_per_cell_oracle(case):
    # the decoded columns, labels, binarize, apply_manifest and their error
    # texts, on both reader branches: QUOTE_ALL sends a table to csv.reader
    (a_columns, a_labels), (b_columns, b_labels) = case
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        with tempfile.TemporaryDirectory() as d:
            a_path, b_path = Path(d) / "a.csv", Path(d) / "b.csv"
            write_table(a_path, a_columns, a_labels, quoting)
            write_table(b_path, b_columns, b_labels, quoting)
            fit = load_or_message(a_path)
            if fit is None:
                continue
            a_table, a_cells = fit
            error = reference_fit_error(a_cells)
            if error is not None:
                with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
                    binarize(a_table)
                continue
            data, manifest = binarize(a_table)
            matrix, names = reference_binarize(a_cells, 7)
            assert data.feature_names == tuple(names)
            assert (np.array(data.matrix) == matrix).all()

            held_out = load_or_message(b_path, manifest.positive_value)
            if held_out is None:
                continue
            b_table, b_cells = held_out
            errors = (
                reference_numeric_error(name, cells)
                for (name, fit_cells), (_, cells) in zip(a_cells, b_cells)
                if reference_edges(fit_cells, 7) is not None
            )
            error = next(filter(None, errors), None)
            if error is not None:
                with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
                    apply_manifest(b_table, manifest)
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                again = apply_manifest(b_table, manifest)
            matrix, names = reference_apply(a_cells, b_cells, 7)
            assert again.feature_names == tuple(names)
            assert (np.array(again.matrix).reshape(matrix.shape) == matrix).all()
            groups = [name.split("=")[0] for name in names]
            unseen = [
                f"{name} {n}"
                for name, _ in a_cells
                if (n := int((matrix[:, [g == name for g in groups]].sum(axis=1) == 0).sum()))
            ]
            want = [f"cells in a category unseen at fit set no bit: {', '.join(unseen)}"]
            assert [str(w.message) for w in caught] == (want if unseen else [])


class TestLoadPredictions:
    def test_one_per_line(self, tmp_path):
        p = write(tmp_path, "p.txt", "1\n0\n0\n1\n")
        pv = load_predictions(p, 4)
        assert list(pv.preds) == [1, 0, 0, 1]

    def test_length_mismatch(self, tmp_path):
        p = write(tmp_path, "p.txt", "1\n0\n0\n")
        with pytest.raises(DataError, match="length mismatch"):
            load_predictions(p, 4)

    def test_non_binary_entry(self, tmp_path):
        p = write(tmp_path, "p.txt", "1\n2\n")
        with pytest.raises(DataError, match="non-binary prediction"):
            load_predictions(p, 2)

    @pytest.mark.parametrize(
        "name, text, column",
        [
            ("p.txt", "1\n\n0\n x \n2\n", None),
            ("p.csv", "id,p\n1,1\n\n2,0\n3, x \n4,2\n", "p"),
        ],
        ids=["one-per-line", "column"],
    )
    def test_first_non_binary_prediction_named(self, tmp_path, name, text, column):
        p = write(tmp_path, name, text)
        message = rf"^{re.escape(str(p))}: non-binary prediction 'x' at entry 3$"
        with pytest.raises(DataError, match=message):
            load_predictions(p, 4, column=column)

    @pytest.mark.parametrize(
        "sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_a_line_end_splits_predictions(self, tmp_path, sep):
        # str.splitlines breaks at these too, which read 3 lines as 4 predictions
        p = tmp_path / "p.txt"
        p.write_bytes(f"1\n0{sep}1\n0\n".encode())
        bad = re.escape(repr(f"0{sep}1"))
        message = rf"^{re.escape(str(p))}: non-binary prediction {bad} at entry 2$"
        with pytest.raises(DataError, match=message):
            load_predictions(p, 4)

    def test_csv_column(self, tmp_path):
        p = write(tmp_path, "p.csv", "id,pred\n0,1\n1,0\n")
        pv = load_predictions(p, 2, column="pred")
        assert list(pv.preds) == [1, 0]

    def test_missing_column(self, tmp_path):
        p = write(tmp_path, "p.csv", "id,pred\n0,1\n")
        with pytest.raises(DataError, match="missing prediction column"):
            load_predictions(p, 1, column="nope")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("id,p\n1,1\n2\n3,1\n", r"ragged row at line 3 \(1 fields, expected 2\)"),
            ("id,p\n1,1\n2,0,9\n3,1\n", r"ragged row at line 3 \(3 fields, expected 2\)"),
            ("p,p\n1,1\n0,0\n1,1\n", "duplicate column name 'p'"),
            ("id, p \n1,1\n2,0\n3,1\n", [1, 0, 1]),
            ("", "empty file"),
        ],
        ids=["short-row", "long-row", "duplicate-header", "padded-header", "empty-file"],
    )
    def test_column_file_follows_the_table_rules(self, tmp_path, text, expected):
        p = write(tmp_path, "p.csv", text)
        if isinstance(expected, list):
            assert list(load_predictions(p, 3, column="p").preds) == expected
        else:
            with pytest.raises(DataError, match=expected):
                load_predictions(p, 3, column="p")


class TestWriteJson:
    def test_same_bytes_as_indented_dumps(self, tmp_path):
        obj = {"b": [1, 2.5, None, True], "a": {"s": "x\u00e9"}, "f": 0.1 + 0.2}
        write_json(tmp_path / "o.json", obj)
        expected = (json.dumps(obj, indent=2) + "\n").encode()
        assert (tmp_path / "o.json").read_bytes() == expected

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_refuses_non_finite_floats(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "o.json", {"autac": value})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_non_standard_constants(tmp_path, token):
    p = write(tmp_path, "o.json", f'{{"alpha": [1, {token}]}}')
    with pytest.raises(DataError, match=f"o.json: not valid JSON: {token} "):
        read_json(p)


@st.composite
def csv_tables(draw):
    # text the reader gives back unchanged: no NUL, no surrounding blanks, and
    # no leading BOM (utf-8-sig drops one) on the first header name
    char = st.one_of(
        st.sampled_from(',"\r\n '),
        st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    )
    cell = st.text(char, max_size=6).map(str.strip)
    header = draw(
        st.lists(cell, min_size=1, max_size=4, unique=True).filter(
            lambda names: not names[0].startswith("\ufeff")
        )
    )
    row = st.lists(cell, min_size=len(header), max_size=len(header))
    return header, draw(st.lists(row, max_size=5))


@given(table=csv_tables())
@settings(max_examples=200, deadline=None)
def test_read_rows_inverts_write_rows(table):
    header, rows = table
    columns = [tuple(row[j] for row in rows) for j in range(len(header))]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        write_rows(path, header, iter(rows))
        assert decoded(_read_rows(path, ",")) == (header, columns)


def outcome(call):
    """What ``call()`` returns, or the type and message of the DataError it raises."""
    try:
        return call()
    except DataError as exc:
        return DataError, str(exc)


@st.composite
def delimited_texts(draw):
    """A delimited text, mostly unquoted, with mixed line ends, its delimiter,
    a field size limit and a block size; some rows are ragged and some cells
    oversized."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    # a cell holding a delimiter is a ragged row, which the row strategy makes.
    # Half the texts draw from a few characters and one extra one, so many are
    # ASCII with one kind of whitespace or none, which decides whether the
    # split cells are stripped; a '"' or a NUL sends the text to csv.reader.
    extra = draw(st.sampled_from(" \t\x0b\x0c\x1c\x1f\x00\ufeffé\u3000\""))
    few_chars = st.sampled_from(["a", "b", "1", ".", "-", extra])
    any_char = st.characters(exclude_categories=("Cs",), exclude_characters='"\r\n,;\t')
    char = draw(st.sampled_from([few_chars, any_char]))
    cell = st.text(char, max_size=5)
    width = draw(st.sampled_from([0, 1, 2, 2, 3, 4]))  # 0: an empty first line
    names = st.lists(cell, min_size=width, max_size=width, unique_by=str.strip)
    header = delimiter.join(draw(names))
    full_row = st.lists(cell, min_size=width, max_size=width).map(delimiter.join)
    row = st.one_of(
        full_row,
        full_row,
        st.lists(cell, max_size=width + 1).map(delimiter.join),
        st.sampled_from(["", extra, extra + extra]),
    )
    lines = [header, *draw(st.lists(row, max_size=6))]
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]
    text += draw(st.sampled_from(["", "\n", "\r\n", "\n\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    limit = draw(st.sampled_from([3, 5, 131072, 131072, 131072]))
    return bom + text, delimiter, limit, draw(st.sampled_from([1, 2, 7, 32768]))


@given(case=delimited_texts())
@example(case=("a,b\n1,2\n\n \n3,4,5\n", ",", 131072, 32768))  # ragged after a blank and a space
@example(case=("\n1\n", ",", 131072, 32768))  # an empty first line: the header has no field
@example(case=("a;b\n1;22222\n3\n", ";", 4, 32768))  # an oversized cell before a ragged row
@example(case=("\ufeffa\tb\n", "\t", 131072, 32768))  # BOM, header only
@example(case=("a, a\n1,2\n", ",", 131072, 32768))  # a repeated name
@example(case=("a,b\n1,\x1fx\n", ",", 131072, 32768))  # ASCII whose only whitespace is \x1f
@example(case=("a,b\r\n1,2\r\r\n3,4\r", ",", 131072, 2))  # \r\n split across blocks, lone \r
@example(case=("\ufeffa,b\n1,2\n3,\"4\"\n", ",", 131072, 4))  # quoted in a later block, BOM
@example(case=("a,b\n1\n2,\"3\"\n", ",", 131072, 4))  # ragged before the block with a quote
@example(case=("", ",", 131072, 32768))  # empty
@settings(max_examples=300, deadline=None)
def test_split_branch_reads_what_csv_reader_reads(case):
    # unquoted text takes _read_rows' split branch; csv.reader must agree
    text, delimiter, limit, block = case
    old_limit, old_block = csv.field_size_limit(limit), data_module._BLOCK
    data_module._BLOCK = block
    try:
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            lines = io.StringIO(text.removeprefix("\ufeff"), newline="")
            expected = outcome(lambda: _csv_columns(path, lines, delimiter))
            assert outcome(lambda: _read_rows(path, delimiter)) == expected
    finally:
        csv.field_size_limit(old_limit)
        data_module._BLOCK = old_block


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_unquoted_table_never_reaches_csv_reader(tmp_path, monkeypatch, newline):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(data_module.csv, "reader", refuse)
    text = newline.join(["a;b;y", "1; x ;0", "", "2;z;1", ""])
    table = load_table(write(tmp_path, "t.csv", text), "y", delimiter=";")
    assert dict(raw_columns(table)) == {"a": ("1", "2"), "b": ("x", "z")}
    with pytest.raises(AssertionError, match="csv.reader called"):
        load_table(write(tmp_path, "q.csv", f'a,y{newline}"1",0{newline}'), "y")


@pytest.mark.parametrize(
    "newline, name", [("\n", "a"), ("\r\n", "a"), ("\r\n", '"a"')], ids=["lf", "crlf", "quoted"]
)
def test_cell_over_the_field_size_limit_names_its_line(tmp_path, newline, name):
    # csv.reader's own error escaped: _csv.Error: field larger than field limit
    long_cell = "x" * (csv.field_size_limit() + 1)
    lines = [f"{name},y", "", "1,0", f"2,{long_cell}", "3,0,9"]
    p = write(tmp_path, "t.csv", newline.join(lines) + newline)
    limit = csv.field_size_limit()
    message = rf"^{re.escape(str(p))}: cell longer than {limit} characters at line 4$"
    with pytest.raises(DataError, match=message):
        load_table(p, "y")
    with pytest.raises(DataError, match=message):
        load_predictions(p, 3, column="y")
    # a cell of exactly the limit is read
    p = write(tmp_path, "u.csv", f"{name},y{newline}1,{long_cell[1:]}{newline}")
    assert decode(load_table(p, "a", positive_value="1").columns["y"]) == (long_cell[1:],)


def test_other_csv_reader_errors_name_their_line(tmp_path, monkeypatch):
    # csv.reader before Python 3.11 refuses a NUL; no such error is an oversized cell
    def reader(lines, delimiter):
        yield ["a", "y"]
        raise csv.Error("line contains NUL")

    monkeypatch.setattr(data_module.csv, "reader", reader)
    p = write(tmp_path, "t.csv", 'a,y\n"1",0\n')
    with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: unreadable line 2: line contains NUL$"):
        load_table(p, "y")


class TestSynthOracle:
    def test_perfect_oracle_reproduces_labels(self):
        labels = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        assert list(synth_oracle(labels, 1.0, seed=3).preds) == labels.tolist()

    def test_zero_accuracy_flips_labels(self):
        labels = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        assert list(synth_oracle(labels, 0.0, seed=3).preds) == (1 - labels).tolist()

    def test_agreement_rate_converges(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(10_000) < 0.5).astype(np.uint8)
        pv = synth_oracle(labels, 0.9, seed=7)
        agreement = float((np.frombuffer(pv.preds, dtype=np.uint8) == labels).mean())
        assert abs(agreement - 0.9) <= 0.01

    def test_deterministic(self):
        labels = np.array([0, 1] * 50, dtype=np.uint8)
        a = synth_oracle(labels, 0.8, seed=5).preds
        b = synth_oracle(labels, 0.8, seed=5).preds
        assert a == b

    def test_accuracy_out_of_range(self):
        with pytest.raises(ValueError):
            synth_oracle(np.array([0, 1], dtype=np.uint8), 1.5, seed=0)


class TestSplitFolds:
    def test_balanced_ten_rows(self):
        matrix = np.eye(10, 3, dtype=bool)
        labels = np.array([0, 1] * 5, dtype=np.uint8)
        data = BinaryDataset.from_bool_matrix(matrix, labels, ("a", "b", "c"))
        folds = split_folds(data, k=5, seed=1)
        assert all(len(f) == 2 for f in folds)
        for f in folds:
            assert labels[f].sum() == 1

    def test_partition_properties(self):
        rng = np.random.default_rng(2)
        matrix = rng.random((100, 4)) < 0.5
        # 40/60 class split: both strata divide evenly into 5 folds of 20
        labels = (np.arange(100) % 5 < 2).astype(np.uint8)
        data = BinaryDataset.from_bool_matrix(matrix, labels, tuple("abcd"))
        folds = split_folds(data, k=5, seed=9)
        assert sorted(np.concatenate(folds).tolist()) == list(range(100))
        assert all(len(f) == 20 for f in folds)

    def test_deterministic(self):
        data = BinaryDataset.from_bool_matrix(
            np.eye(12, 2, dtype=bool), np.array([0, 1] * 6, dtype=np.uint8), ("a", "b")
        )
        f1 = split_folds(data, k=3, seed=4)
        f2 = split_folds(data, k=3, seed=4)
        assert f1 == f2

    def test_small_class_falls_back_unstratified(self):
        labels = np.array([1] + [0] * 9, dtype=np.uint8)
        data = BinaryDataset.from_bool_matrix(np.eye(10, 2, dtype=bool), labels, ("a", "b"))
        with pytest.warns(UserWarning, match="unstratified"):
            folds = split_folds(data, k=5, seed=0)
        assert sorted(np.concatenate(folds).tolist()) == list(range(10))

    def test_unstratified_fallback_folds_are_pinned(self):
        # one permutation of every row, dealt round-robin; the values are pinned
        labels = np.array([1] + [0] * 9, dtype=np.uint8)
        data = BinaryDataset.from_bool_matrix(np.eye(10, 2, dtype=bool), labels, ("a", "b"))
        with pytest.warns(UserWarning, match="unstratified"):
            folds = split_folds(data, k=5, seed=0)
        assert folds == [[2, 4], [7, 9], [5, 6], [1, 3], [0, 8]]
        with pytest.warns(UserWarning, match="unstratified"):
            folds = split_folds(data, k=3, seed=7)
        assert folds == [[2, 3, 4, 5], [0, 1, 7], [6, 8, 9]]

    @given(seed=st.integers(min_value=0, max_value=2**31), k=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_partition_random(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 60))
        matrix = rng.random((n, 3)) < 0.5
        labels = (rng.random(n) < 0.5).astype(np.uint8)
        data = BinaryDataset.from_bool_matrix(matrix, labels, ("a", "b", "c"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            folds = split_folds(data, k=k, seed=seed)
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(n))
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 2
