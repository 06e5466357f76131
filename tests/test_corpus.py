import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofkit import corpus
from hofkit.corpus import (
    CorpusError,
    Dataset,
    Example,
    build_vocab,
    encode,
    kfold,
    load_tsv,
    split_train_val,
)


def write_tsv(path, rows, header="text_id\ttext\ttask_1"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestLoadTsv:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_tsv(p, ["t1\t@someone bura\tHOF"])
        ds = load_tsv(p)
        assert len(ds) == 1
        assert ds[0].tweet_id == "t1"
        assert ds[0].tokens == ("xxatp", "bura")
        assert ds[0].label == 1

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_tsv(p, [])
        assert len(load_tsv(p)) == 0

    def test_unknown_label_reports_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_tsv(p, ["t1\tok\tHOF", "t2\tbad\tMAYBE"])
        with pytest.raises(CorpusError, match="unknown label 'MAYBE', line 3"):
            load_tsv(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_tsv(p, ["t1\tonly-two-fields"])
        with pytest.raises(CorpusError, match="line 2"):
            load_tsv(p)

    def test_duplicate_id_reports_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_tsv(p, ["t1\ta\tHOF", "t1\tb\tNOT"])
        with pytest.raises(CorpusError, match="duplicate id 't1', line 3"):
            load_tsv(p)

    @pytest.mark.parametrize("good_rows", [1, 2000])  # 2000 rows put the byte past a read chunk
    def test_invalid_utf8_reports_line(self, tmp_path, good_rows):
        p = tmp_path / "d.tsv"
        write_tsv(p, [f"t{i}\tkuch bhi\tHOF" for i in range(good_rows)])
        with open(p, "ab") as fh:
            fh.write(b"bad\tbura \xff word\tNOT\n")
        with pytest.raises(CorpusError, match=rf"byte 0xff is not UTF-8 .*, line {good_rows + 2}$"):
            load_tsv(p)

    @pytest.mark.parametrize(
        "header, rows, message",
        [
            ("text_id\ttext\ttask_1", ["t1\tok\tMAYBE"], "unknown label 'MAYBE', line 2"),
            ("text_id\ttext\ttask_1", ["t1\tok\tHOF", "t1\tok\tNOT"], "duplicate id 't1', line 3"),
            ("text_id\ttext\ttask_1", ["t1\tonly-two-fields"], "expected 3 fields, got 2, line 2"),
            ("id\ttext\ttask_1", [], "header must contain text_id and text columns"),
        ],
        ids=["label", "duplicate-id", "field-count", "header"],
    )
    def test_row_defect_above_an_invalid_byte_is_reported_first(self, tmp_path, header, rows,
                                                                  message):
        # the reader decodes ahead: a byte on line 51 fails before line 2 is checked
        p = tmp_path / "d.tsv"
        write_tsv(p, rows + [f"g{i}\tkuch bhi\tHOF" for i in range(49 - len(rows))], header)
        with open(p, "ab") as fh:
            fh.write(b"bad\tbura \xff word\tNOT\n")
        assert p.read_bytes().count(b"\n") == 51
        with pytest.raises(CorpusError) as exc:
            load_tsv(p)
        assert str(exc.value).startswith(message)

    def test_unlabelled_file(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_tsv(p, ["t1\tkuch bhi"], header="text_id\ttext")
        ds = load_tsv(p)
        assert ds[0].label is None

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_tsv(
            p, ["t1\tkuch\tHOF\tPRFN"], header="text_id\ttext\ttask_1\ttask_2"
        )
        assert load_tsv(p)[0].label == 1


def test_token_lines_name_the_line_of_an_invalid_utf8_byte(tmp_path):
    p = tmp_path / "c.txt"
    p.write_bytes(b"kuch bhi\n" * 2000 + b"bura \xff word\n")
    with pytest.raises(ValueError, match=r"byte 0xff is not UTF-8 .*, line 2001$"):
        corpus.load_token_lines(p)


class TestBuildVocab:
    def test_min_count_filters(self):
        v = build_vocab([["a", "a", "b"]], min_count=2)
        assert v.words == ["xxpad", "xxunk", "a"]
        assert "b" not in v

    def test_empty_corpus_keeps_reserved(self):
        v = build_vocab([], min_count=2)
        assert v.words == ["xxpad", "xxunk"]

    def test_tie_break_lexicographic(self):
        v = build_vocab([["a", "a", "b", "b"]], min_count=1)
        assert v.words == ["xxpad", "xxunk", "a", "b"]

    def test_frequency_order(self):
        v = build_vocab([["z", "z", "z", "a"]], min_count=1)
        assert v.words == ["xxpad", "xxunk", "z", "a"]

    def test_ids_dense_bijection(self):
        v = build_vocab([["x", "y", "x"]], min_count=1)
        assert [v.word_to_id[w] for w in v.words] == list(range(len(v)))

    def test_min_count_zero_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], min_count=0)

    def test_dump_roundtrip(self, tmp_path):
        v = build_vocab([["a", "a", "b"]], min_count=1)
        p = tmp_path / "vocab.tsv"
        v.save(p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "xxpad\t0"
        assert lines[2] == "a\t2"
        assert [line.split("\t")[0] for line in lines] == v.words


class TestEncode:
    def test_oov_maps_to_unk(self):
        v = build_vocab([["a", "a"]], min_count=1)
        assert encode(["a", "zzz"], v).ids == (v.word_to_id["a"], corpus.UNK_ID)

    def test_empty(self):
        v = build_vocab([], min_count=1)
        assert encode([], v).ids == ()

    def test_retained_placeholder(self):
        v = build_vocab([["xxatp", "xxatp"]], min_count=1)
        assert encode(["xxatp"], v).ids == (v.word_to_id["xxatp"],)

    def test_roundtrip_in_vocab(self):
        v = build_vocab([["a", "b", "c"]], min_count=1)
        enc = encode(["c", "a", "b"], v)
        assert [v.words[i] for i in enc.ids] == ["c", "a", "b"]


def _dataset(n):
    return Dataset(
        [Example(f"t{i}", ("tok",), 1 if i % 2 == 0 else 0) for i in range(n)]
    )


class TestSplit:
    def test_large_dataset_split_support(self):
        train, val = split_train_val(_dataset(4665), 0.2, seed=3)
        assert len(val) == 933
        assert len(train) == 3732

    def test_small_split(self):
        train, val = split_train_val(_dataset(10), 0.2, seed=3)
        assert len(val) == 2

    def test_deterministic(self):
        a = split_train_val(_dataset(50), 0.2, seed=9)
        b = split_train_val(_dataset(50), 0.2, seed=9)
        assert [e.tweet_id for e in a[0]] == [e.tweet_id for e in b[0]]
        assert [e.tweet_id for e in a[1]] == [e.tweet_id for e in b[1]]

    def test_exact_partition(self):
        ds = _dataset(37)
        train, val = split_train_val(ds, 0.2, seed=1)
        ids = sorted(e.tweet_id for e in train) + sorted(e.tweet_id for e in val)
        assert sorted(ids) == sorted(e.tweet_id for e in ds)

    def test_stratified_keeps_class_fractions(self):
        ds = _dataset(100)
        train, val = split_train_val(ds, 0.2, seed=1, stratified=True)
        assert sum(1 for e in val if e.label == 1) == 10
        assert sum(1 for e in val if e.label == 0) == 10

    def test_too_small_errors(self):
        with pytest.raises(ValueError):
            split_train_val(_dataset(1), 0.2, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_train_val(_dataset(10), 0.0, seed=0)


class TestKfold:
    def test_singleton_folds(self):
        parts = kfold(10, 10, seed=0)
        assert all(len(test) == 1 for _, test in parts)

    def test_sizes_differ_by_at_most_one(self):
        parts = kfold(11, 10, seed=0)
        sizes = sorted(len(test) for _, test in parts)
        assert sizes == [1] * 9 + [2]

    def test_exact_partition(self):
        parts = kfold(23, 4, seed=5)
        seen = [i for _, test in parts for i in test]
        assert sorted(seen) == list(range(23))
        for train, test in parts:
            assert not set(train) & set(test)
            assert sorted(train + test) == list(range(23))

    def test_n_smaller_than_k(self):
        with pytest.raises(ValueError):
            kfold(5, 10, seed=0)

    def test_deterministic(self):
        assert kfold(20, 5, seed=2) == kfold(20, 5, seed=2)


@given(st.integers(2, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_is_exact_partition(n, seed):
    ds = _dataset(n)
    train, val = split_train_val(ds, 0.2, seed=seed)
    assert len(train) + len(val) == n
    assert len(val) == round(0.2 * n)
    all_ids = {e.tweet_id for e in train} | {e.tweet_id for e in val}
    assert len(all_ids) == n


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_kfold_partition_property(k, seed):
    n = k * 3 + (seed % k)
    parts = kfold(n, k, seed=seed)
    tests = [i for _, test in parts for i in test]
    assert sorted(tests) == list(range(n))
    sizes = [len(test) for _, test in parts]
    assert max(sizes) - min(sizes) <= 1
