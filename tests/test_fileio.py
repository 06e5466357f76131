import numpy as np
import pytest

from hofkit import corpus, embedding
from hofkit.fileio import atomic_open, utf8_line_errors


def _leftovers(folder):
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".tmp"))


class TestAtomicOpen:
    def test_replaces_the_target_on_success(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text("old\n", encoding="utf-8")
        with atomic_open(out) as fh:
            fh.write("new ज\n")
        assert out.read_text(encoding="utf-8") == "new ज\n"
        assert _leftovers(tmp_path) == []

    def test_binary_mode(self, tmp_path):
        out = tmp_path / "out.bin"
        with atomic_open(out, "wb") as fh:
            fh.write(b"\x00\xff")
        assert out.read_bytes() == b"\x00\xff"

    @pytest.mark.parametrize("existing", [None, "old\n"])
    def test_failing_write_leaves_no_half_written_file(self, tmp_path, existing):
        out = tmp_path / "out.txt"
        if existing is not None:
            out.write_text(existing, encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_open(out) as fh:
                fh.write("half")
                raise RuntimeError("failed part way")
        assert (out.read_text(encoding="utf-8") if out.exists() else None) == existing
        assert _leftovers(tmp_path) == []

    def test_vectors_file_that_fails_mid_write_is_not_left_behind(self, tmp_path):
        # a lone surrogate cannot be encoded: the write fails after the first rows
        vocab = corpus.build_vocab([["a", "b", "\ud800"]], 1)
        out = tmp_path / "vec.txt"
        with pytest.raises(UnicodeEncodeError):
            embedding.save_text(embedding.EmbeddingMatrix(np.zeros((len(vocab), 2))), vocab, out)
        assert not out.exists()
        assert _leftovers(tmp_path) == []
        with pytest.raises(UnicodeEncodeError):
            vocab.save(out)
        assert not out.exists()


def _bad_rows(text):
    """Raise the first line of ``text`` that reads ``bad``, naming it."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line == "bad":
            raise ValueError(f"bad row, line {lineno}")


class TestUtf8LineErrors:
    def test_an_earlier_defect_replaces_a_plain_value_error(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_text("ok\nbad\nok\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^bad row, line 2$"):
            with utf8_line_errors(p, check=_bad_rows):
                raise ValueError("parser error at row 3")

    def test_a_plain_value_error_is_reraised_where_check_finds_none(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_text("ok\nok\n", encoding="utf-8")
        error = ValueError("parser error at row 3")
        with pytest.raises(ValueError) as raised:
            with utf8_line_errors(p, check=_bad_rows):
                raise error
        assert raised.value is error

    @pytest.mark.parametrize("check", [None, _bad_rows])
    def test_an_invalid_byte_is_reported_with_its_line(self, tmp_path, check):
        p = tmp_path / "in.txt"
        p.write_bytes(b"ok\nok\n\xff\nbad\n")
        with pytest.raises(RuntimeError, match=r"^byte 0xff is not UTF-8 .*, line 3$"):
            with utf8_line_errors(p, RuntimeError, check):
                p.read_text(encoding="utf-8")

    def test_a_defect_above_an_invalid_byte_comes_first(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_bytes(b"ok\nbad\n\xff\n")
        with pytest.raises(ValueError, match="^bad row, line 2$"):
            with utf8_line_errors(p, check=_bad_rows):
                p.read_text(encoding="utf-8")
