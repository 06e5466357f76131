import numpy as np
import pytest

from hofkit import corpus, embedding
from hofkit.fileio import atomic_open


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
