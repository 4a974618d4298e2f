import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aghash import data as data_module
from aghash.data import (
    AuxSemantics,
    DatasetSplit,
    FeatureMatrix,
    load_aux,
    load_features,
    load_split,
    make_split,
    save_aux,
    save_features,
    save_split,
    synth_dataset,
)
from aghash.errors import DataError, FormatError, ParameterError, ShapeError


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadFeatures:
    def test_small_csv(self, tmp_path):
        p = write(tmp_path / "f.txt", "2 3\n1,2,3\n4,5,6\n")
        fm = load_features(p)
        assert np.array_equal(fm.data, [[1, 2, 3], [4, 5, 6]])
        assert fm.d == 2 and fm.n == 3

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "f.txt", "")
        with pytest.raises(FormatError):
            load_features(p)

    def test_nan_token_names_position(self, tmp_path):
        p = write(tmp_path / "f.txt", "2 2\n1,2\n3,NaN\n")
        with pytest.raises(DataError, match="row 1, column 1"):
            load_features(p)

    def test_binary_nan_names_file_and_position(self, tmp_path):
        p = tmp_path / "f.bin"
        save_features(p, FeatureMatrix(np.ones((2, 3))), format="binary")
        raw = bytearray(p.read_bytes())
        raw[-8:-4] = np.float32(np.nan).tobytes()  # row 1, column 1 of the float32 payload
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=re.escape(f"{p}: non-finite feature value at row 1, column 1")):
            load_features(p)

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "f.txt", "two three\n1,2,3\n")
        with pytest.raises(FormatError):
            load_features(p)

    def test_row_count_mismatch(self, tmp_path):
        p = write(tmp_path / "f.txt", "3 2\n1,2\n3,4\n")
        with pytest.raises(ShapeError):
            load_features(p)

    @pytest.mark.parametrize("text, message", [
        ("2 3\n1,2,3\n4,x5,6\n", "unparseable value 'x5' at row 1, column 1"),
        ("2 3\n1,2,\n4,5,6\n", "unparseable value '' at row 0, column 2"),
        ("2 3\n1,2,3\n4,5\n", "row 1 has 2 values, expected 3"),
        ("2 3\n1,2,3\n4\n", "row 1 has 1 values, expected 3"),
    ])
    def test_bad_value_names_its_position(self, tmp_path, text, message):
        p = write(tmp_path / "f.txt", text)
        with pytest.raises((FormatError, ShapeError), match=re.escape(f"{p}: {message}")):
            load_features(p)

    def test_text_values_parse_as_python_floats(self, tmp_path):
        tokens = ["1", "-0.5", "+.25", "1e-3", "3.000000001", "1_0", " 7 ", "-0", "1e-320"]
        p = write(tmp_path / "f.txt", f"1 {len(tokens)}\n" + ",".join(tokens) + "\n")
        data = load_features(p).data
        assert data.tolist() == [[float(t) for t in tokens]]
        assert np.signbit(data[0, 7])

    def test_binary_payload_length_checked(self, tmp_path):
        fm = FeatureMatrix(np.ones((2, 2)))
        p = tmp_path / "f.bin"
        save_features(p, fm, format="binary")
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(ShapeError):
            load_features(p)

    @pytest.mark.parametrize("keep", [4, 15], ids=["magic-only", "header-cut"])
    def test_binary_cut_inside_header(self, tmp_path, keep):
        p = tmp_path / "f.bin"
        save_features(p, FeatureMatrix(np.ones((2, 2))), format="binary")
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(FormatError, match=re.escape(f"{p}: file too short for binary header")):
            load_features(p)

    @pytest.mark.parametrize("content", [b"", b"AGF", b"agfm"], ids=repr)
    def test_no_magic_reads_as_text(self, tmp_path, content):
        p = tmp_path / "f.bin"
        p.write_bytes(content)
        with pytest.raises(FormatError, match=re.escape(f"{p}: ")):
            load_features(p)


# tokens at the edges of the two parsers' grammars: float() alone takes
# "1_0", numpy's reader alone takes "\x1c1" (leading \x1c is whitespace to it)
EDGE_TOKENS = [" 7 ", "+.25", "1_0", "-0", "1e-320", "1e400", "nan", "inf", "nan(1)", "0x10", "  ", "",
               "1d3", "\x1c1", "1\x1f"]
_token = st.one_of(st.floats(width=64).map(repr), st.sampled_from(EDGE_TOKENS))


@st.composite
def _text_matrices(draw):
    """(header rows, header cols, rows of tokens); one file in three has a row or a header that disagrees."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_token, min_size=cols, max_size=cols), min_size=1, max_size=4))
    shape = [len(rows), cols]
    mismatch = draw(st.integers(0, 5))
    if mismatch < 2:
        shape[mismatch] += draw(st.sampled_from([-1, 1]))
    elif mismatch == 2:  # one value where the header declares cols
        rows[draw(st.integers(0, len(rows) - 1))][1:] = []
    return *shape, rows


def _outcome(load, path):
    """(bytes of the loaded values, None) or (None, (error type, message))."""
    try:
        return load(path).data.tobytes(), None
    except Exception as exc:  # noqa: BLE001 - the comparison is of whatever is raised
        return None, (type(exc), str(exc))


def _load_line_by_line(path):
    with mock.patch.object(data_module, "_parse_rows", lambda path: None):
        return load_features(path)


class TestTextParsePaths:
    @settings(max_examples=150, deadline=None)
    @given(matrix=_text_matrices())
    def test_values_are_float_values_or_the_line_by_line_error(self, tmp_path_factory, matrix):
        n_rows, n_cols, rows = matrix
        p = tmp_path_factory.getbasetemp() / "f.txt"
        p.write_text(f"{n_rows} {n_cols}\n" + "".join(",".join(row) + "\n" for row in rows))
        got, error = _outcome(load_features, p)
        assert (got, error) == _outcome(_load_line_by_line, p)
        if error is None:  # float() of the stripped lines' tokens, bit for bit, the sign of -0 included;
            # a row of blank tokens is a blank line, which the loaders skip
            lines = [line.split(",") for line in (",".join(row).strip() for row in rows) if line]
            assert got == np.array([[float(tok) for tok in line] for line in lines]).tobytes()

    def test_well_formed_file_takes_the_row_parser(self, tmp_path):
        fm, aux, _ = synth_dataset(n=40, d=5, c=3, sep=2.0, label_noise=0.2, seed=2)
        save_features(tmp_path / "f.txt", fm)
        save_aux(tmp_path / "a.txt", aux)
        edges = write(tmp_path / "e.txt", "2 3\n -0, 1e-320 ,+.25\n\n7,-1.5e3,0\n")
        with mock.patch.object(data_module, "_parse_lines", side_effect=AssertionError("line-by-line parse")):
            back = load_features(tmp_path / "f.txt").data
            # the noisy tags leave some items with no tag
            with pytest.warns(UserWarning, match="no auxiliary semantics"):
                assert np.array_equal(load_aux(tmp_path / "a.txt").data, aux.data)
            values = load_features(edges).data
        assert back.tobytes() == _load_line_by_line(tmp_path / "f.txt").data.tobytes()
        assert values.tolist() == [[-0.0, 1e-320, 0.25], [7.0, -1500.0, 0.0]] and np.signbit(values[0, 0])

    def test_text_load_peak_memory_is_about_the_array(self, tmp_path):
        fm = FeatureMatrix(np.random.default_rng(6).standard_normal((128, 6000)))
        save_features(tmp_path / "f.txt", fm)
        tracemalloc.start()
        try:
            load_features(tmp_path / "f.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * fm.data.nbytes, f"peak {peak / 1e6:.1f} MB for a {fm.data.nbytes / 1e6:.1f} MB array"


class TestRoundTrip:
    def test_binary_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((5, 7)).astype(np.float32).astype(np.float64)
        fm = FeatureMatrix(data)
        p = tmp_path / "f.bin"
        save_features(p, fm, format="binary")
        back = load_features(p)
        assert np.array_equal(back.data, fm.data)
        save_features(tmp_path / "g.bin", back, format="binary")
        assert (tmp_path / "g.bin").read_bytes() == p.read_bytes()

    def test_text_six_significant_digits(self, tmp_path):
        rng = np.random.default_rng(4)
        fm = FeatureMatrix(rng.standard_normal((4, 6)) * 100)
        p = tmp_path / "f.txt"
        save_features(p, fm)
        back = load_features(p)
        assert np.allclose(back.data, fm.data, rtol=1e-6)

    def test_text_values_are_written_as_the_format_spec_writes_them(self, tmp_path):
        # each value as f"{v:.9g}" writes the numpy scalar, edge values included
        values = np.array([[-0.0, 5e-324, 1e308, 0.1, 1 / 3], [-1e-300, 123456789.5, -2.5, 1e16, 7.0]])
        p = tmp_path / "f.txt"
        save_features(p, FeatureMatrix(values))
        rows = [",".join(f"{v:.9g}" for v in row) for row in values]
        assert p.read_text() == "2 5\n" + "".join(row + "\n" for row in rows)
        assert rows[0] == "-0,4.94065646e-324,1e+308,0.1,0.333333333"


class TestAux:
    def test_identity_pattern(self, tmp_path):
        p = write(tmp_path / "a.txt", "2 2\n1,0\n0,1\n")
        aux = load_aux(p)
        assert np.array_equal(aux.data, np.eye(2))

    def test_nonbinary_entry(self, tmp_path):
        p = write(tmp_path / "a.txt", "2 2\n1,0\n0,2\n")
        with pytest.raises(DataError):
            load_aux(p)

    def test_zero_column_warns(self, tmp_path):
        p = write(tmp_path / "a.txt", "2 2\n1,0\n1,0\n")
        with pytest.warns(UserWarning, match="no auxiliary semantics"):
            load_aux(p)

    def test_zero_column_warning_names_the_file(self, tmp_path):
        p = write(tmp_path / "a.txt", "2 3\n1,0,1\n1,0,0\n")
        message = f"{p}: 1 item(s) have no auxiliary semantics (first: column 1)"
        with pytest.warns(UserWarning, match=re.escape(message)) as record:
            load_aux(p)
        assert len(record) == 1 and record[0].filename == __file__

    def test_zero_column_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning, match="no auxiliary semantics") as record:
            AuxSemantics(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert record[0].filename == __file__

    def test_round_trip(self, tmp_path):
        aux = AuxSemantics(np.array([[1.0, 0], [1, 1]]))
        p = tmp_path / "a.txt"
        save_aux(p, aux)
        assert np.array_equal(load_aux(p).data, aux.data)

    def test_written_as_integers(self, tmp_path):
        p = tmp_path / "a.txt"
        save_aux(p, AuxSemantics(np.array([[1.0, -0.0, 0.0], [0.0, 1.0, 1.0]])))
        assert p.read_text() == "2 3\n1,0,0\n0,1,1\n"


class TestFeatureMatrixInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.array([[1.0, np.inf]]))

    def test_immutable(self):
        fm = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            fm.data[0, 0] = 5.0


class TestSynth:
    def test_zero_noise_aux_equals_truth(self):
        _, aux, truth = synth_dataset(n=4, d=3, c=2, sep=5.0, label_noise=0.0, seed=7)
        assert np.array_equal(aux.data, truth.data)
        assert np.array_equal(aux.data.sum(axis=0), np.ones(4))

    def test_zero_separation_valid(self):
        fm, aux, _ = synth_dataset(n=6, d=2, c=3, sep=0.0, label_noise=0.0, seed=1)
        assert fm.n == 6 and aux.c == 3

    def test_deterministic(self):
        a = synth_dataset(n=10, d=4, c=2, sep=3.0, label_noise=0.2, seed=42)
        b = synth_dataset(n=10, d=4, c=2, sep=3.0, label_noise=0.2, seed=42)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)
        assert np.array_equal(a[2].data, b[2].data)

    def test_cluster_distance(self):
        fm, _, truth = synth_dataset(n=40, d=8, c=2, sep=20.0, label_noise=0.0, seed=3)
        lab = truth.data.argmax(axis=0)
        m0 = fm.data[:, lab == 0].mean(axis=1)
        m1 = fm.data[:, lab == 1].mean(axis=1)
        assert np.linalg.norm(m0 - m1) == pytest.approx(20.0, abs=1.5)

    def test_too_many_clusters(self):
        with pytest.raises(ParameterError):
            synth_dataset(n=2, d=3, c=3, sep=1.0, label_noise=0.0, seed=0)

    @pytest.mark.parametrize("sep", [-1.0, np.nan, np.inf])
    def test_separation_must_be_finite_and_nonnegative(self, sep):
        with pytest.raises(ParameterError, match=f"need a finite sep >= 0, got {sep}"):
            synth_dataset(n=4, d=3, c=2, sep=sep, label_noise=0.0, seed=0)


class TestSplit:
    def test_sizes(self):
        s = make_split(10, (5, 2), seed=1)
        assert len(s.train) == 5 and len(s.query) == 2 and len(s.retrieval) == 8
        assert np.intersect1d(s.query, s.retrieval).size == 0

    def test_empty_query(self):
        s = make_split(5, (5, 0), seed=0)
        assert len(s.query) == 0 and len(s.retrieval) == 5

    def test_oversized(self):
        with pytest.raises(ParameterError):
            make_split(3, (3, 1), seed=0)

    def test_exclude_train(self):
        s = make_split(10, (4, 3), seed=2, include_train_in_retrieval=False)
        assert np.intersect1d(s.train, s.retrieval).size == 0
        assert len(s.retrieval) == 3

    def test_disjointness_many_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            train = int(rng.integers(0, n))
            query = int(rng.integers(0, n - train + 1))
            s = make_split(n, (train, query), seed=int(rng.integers(1 << 30)))
            assert np.intersect1d(s.train, s.query).size == 0
            assert np.intersect1d(s.query, s.retrieval).size == 0
            assert s.retrieval.max(initial=-1) < n and s.train.max(initial=-1) < n

    @pytest.mark.parametrize("name", ["train", "query", "retrieval"])
    def test_repeated_index(self, name):
        # index sets: the smallest repeated index is named with its subset
        subsets = {"train": [0, 1], "query": [2, 3], "retrieval": [4, 5]}
        subsets[name] = subsets[name] + subsets[name][::-1]
        with pytest.raises(ParameterError, match=f"^{name} index {subsets[name][0]} is repeated$"):
            DatasetSplit(**subsets)

    def test_loaded_split_errors_name_the_file(self, tmp_path):
        p = tmp_path / "split.json"
        for train, query, message in (("[0, 1, 0]", "[]", "train index 0 is repeated"),
                                      ("[0, 1]", "[1]", "train and query sets overlap")):
            p.write_text(f'{{"train": {train}, "query": {query}, "retrieval": []}}')
            with pytest.raises(ParameterError, match=f"^{re.escape(str(p))}: {message}$"):
                load_split(p)

    def test_round_trip(self, tmp_path):
        s = make_split(12, (6, 3), seed=9)
        p = tmp_path / "split.json"
        save_split(p, s)
        back = load_split(p)
        assert np.array_equal(back.train, s.train)
        assert np.array_equal(back.query, s.query)
        assert np.array_equal(back.retrieval, s.retrieval)
