import re
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofkit import corpus
from hofkit import preprocess as pp
from golden_cases import GOLDEN_CASES


class TestDeidentify:
    def test_mention(self):
        assert pp.deidentify("@someone kya baat") == "xxatp kya baat"

    def test_retweet_and_url(self):
        assert pp.deidentify("RT @abc: hello https://t.co/x1") == "xxrtu hello xxurl"

    def test_identity_without_placeholders(self):
        assert pp.deidentify("no handles here") == "no handles here"

    def test_modified_tweet_marker(self):
        assert pp.deidentify("MT @user: sach").startswith("xxrtm")

    def test_bare_tco(self):
        assert pp.deidentify("see t.co/abc") == "see xxurl"


class TestFixRepeats:
    def test_collapses_to_two(self):
        assert pp.fix_repeats("goooood") == "good"

    def test_runs_of_two_untouched(self):
        assert pp.fix_repeats("aa") == "aa"

    def test_applies_to_punctuation(self):
        assert pp.fix_repeats("वाह!!!!") == "वाह!!"

    def test_multiple_runs(self):
        assert pp.fix_repeats("aaabbbccc") == "aabbcc"


class TestRemoveInvalid:
    def test_br_becomes_space(self):
        assert pp.remove_invalid("a<br/>b") == "a b"

    def test_at_dash_at(self):
        assert pp.remove_invalid("x @-@ y") == "x y"

    def test_identity(self):
        assert pp.remove_invalid("clean") == "clean"

    def test_zero_width_removed_without_split(self):
        assert pp.remove_invalid("a​b") == "ab"

    def test_whitespace_collapse(self):
        assert pp.remove_invalid("a \t\n b") == "a b"


class TestHtmlUnescape:
    def test_decimal(self):
        assert pp.html_unescape("&#2340;") == "त"

    def test_hex(self):
        assert pp.html_unescape("&#x924;") == "त"

    def test_named(self):
        assert pp.html_unescape("&amp;") == "&"

    def test_unknown_left_verbatim(self):
        assert pp.html_unescape("&bogus;") == "&bogus;"

    def test_double_escape_fully_resolves(self):
        assert pp.html_unescape("&amp;#64;") == "@"

    @pytest.mark.parametrize("ref", ["&#55296;", "&#xD800;", "&#57343;", "&#xdfff;"])
    def test_surrogate_reference_left_verbatim(self, ref):
        out = pp.html_unescape(f"a{ref}b")
        assert out == f"a{ref}b"
        out.encode("utf-8")  # no lone surrogate survives

    def test_neighbours_of_surrogate_range_decode(self):
        assert pp.html_unescape("&#xD7FF;&#xE000;") == "\ud7ff\ue000"


_code_points = st.one_of(
    st.integers(0, 0x10FFFF),
    st.integers(0xD7F0, 0xE00F),  # the UTF-16 surrogates and their neighbours
    st.integers(0x10FFF0, 2**80),  # the last code points and far past them
)
_references = st.one_of(
    _code_points.map(lambda c: f"&#{c};"),
    _code_points.map(lambda c: f"&#x{c:x};"),
    _code_points.map(lambda c: f"&#X{c:X};"),
    st.integers(0, 6000).map(lambda n: f"&#{'0' * n}38;"),  # leading zeros past int()'s limit
    st.integers(4000, 6000).map(lambda n: f"&#{'9' * n};"),
    st.integers(4000, 6000).map(lambda n: f"&#x{'f' * n};"),
    st.sampled_from(["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&nbsp;", "&AMP;", "&bogus;",
                     "&#;", "&#x;", "&#-1;", "&"]),
)
# "&amp;" + r[1:] escapes a reference once more: &#64; -> &amp;#64; -> &amp;amp;#64;
_escaped_references = st.recursive(
    _references, lambda inner: inner.map(lambda r: "&amp;" + r[1:]), max_leaves=3
)
_unescape_inputs = st.lists(
    st.one_of(st.text(max_size=4), _escaped_references, st.sampled_from(list("&#x;a9"))),
    max_size=12,
).map("".join)


@given(_unescape_inputs)
@settings(max_examples=300, deadline=None)
def test_html_unescape_fuzz(text):
    out = pp.html_unescape(text)
    assert pp.html_unescape(out) == out
    out.encode("utf-8")  # no lone surrogate
    assert len(out) <= len(text)
    pp.preprocess(text)


_devanagari = [chr(c) for c in range(0x0900, 0x0980)]
_few_devanagari = st.sampled_from(["क", "ा", "ि", "त"])  # few letters: suffixes often match


def _scan_stem(word, suffixes):
    """Reference stemmer: scan the table in order for every strip."""
    if not word or not all(
        0x0900 <= ord(c) <= 0x097F and c not in "\u0964\u0965\u0970" for c in word
    ):
        return word
    while True:
        for suf in suffixes:
            if len(word) > len(suf) and word.endswith(suf):
                word = word[: -len(suf)]
                break
        else:
            return word


class TestStemHindi:
    def test_longest_suffix_stripped(self):
        assert pp.stem_hindi("लड़कियाँ") == "लड़क"

    def test_non_devanagari_passthrough(self):
        assert pp.stem_hindi("xxatp") == "xxatp"

    def test_stem_never_empty(self):
        assert pp.stem_hindi("त") == "त"
        assert pp.stem_hindi("ी") == "ी"

    def test_idempotent(self):
        for word in ("लड़कियाँ", "नमस्ते", "बुरी", "जाएंगे", "खाता"):
            once = pp.stem_hindi(word)
            assert pp.stem_hindi(once) == once

    def test_custom_table(self, tmp_path):
        table = tmp_path / "suffixes.txt"
        table.write_text("# comment\nता\n", encoding="utf-8")
        suffixes = pp.load_suffix_table(table)
        assert suffixes == ("ता",)
        assert pp.stem_hindi("खाता", suffixes) == "खा"

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_lookup_matches_table_scan(self, data):
        # unsorted tables with duplicates: the first matching entry in table order wins
        table = data.draw(st.lists(st.text(alphabet=_few_devanagari, max_size=4), max_size=12))
        stem = data.draw(st.text(alphabet=st.sampled_from(_devanagari + ["a"]), max_size=3))
        tails = data.draw(st.lists(st.sampled_from(table), max_size=3)) if table else []
        word = stem + "".join(tails)
        for suffixes in (tuple(table), pp.default_suffix_table()):
            assert pp.stem_hindi(word, suffixes) == _scan_stem(word, suffixes)

    def test_default_table_matches_table_scan_on_its_own_entries(self):
        suffixes = pp.default_suffix_table()
        for suf in suffixes:
            for word in ("क" + suf, "कम" + suf + suf, suf):
                assert pp.stem_hindi(word) == _scan_stem(word, suffixes)


class TestTokenize:
    def test_detaches_trailing_punct(self):
        assert pp.tokenize("Kya baat!") == ["kya", "baat", "!"]

    def test_empty(self):
        assert pp.tokenize("") == []

    def test_placeholders_survive(self):
        assert pp.tokenize("xxatp तुम") == ["xxatp", "तुम"]

    def test_all_punct_token_kept_whole(self):
        assert pp.tokenize("!?!") == ["!?!"]

    def test_internal_punct_kept(self):
        assert pp.tokenize("don't stop") == ["don't", "stop"]


@pytest.mark.parametrize("text,expected", GOLDEN_CASES)
def test_golden_pipeline(text, expected):
    assert pp.preprocess(text) == expected


# -- properties ---------------------------------------------------------------

_alphabet = st.sampled_from(
    list("abchtpurlRTMX Z@#&;:/.!?-<>")
    + list("कखगतनमसलियाँेीो़्ं")
    + ["​", "﻿", "\xa0"]
)
_texts = st.text(alphabet=_alphabet, max_size=40)
_templates = st.sampled_from(
    [
        "RT @{w}: {t}",
        "MT @{w} {t}",
        "@{w} {t}",
        "{t} https://t.co/{w}",
        "&amp;#64;{w} {t}",
        "{t} &#2340;{w}",
        "{t}<br/>{t}",
    ]
)


@st.composite
def tweet_like(draw):
    t = draw(_texts)
    if draw(st.booleans()):
        template = draw(_templates)
        w = draw(st.text(alphabet=st.sampled_from(list("abcxyz123")), min_size=1, max_size=6))
        return template.format(w=w, t=t)
    return t


@given(tweet_like())
@settings(max_examples=300, deadline=None)
def test_pipeline_idempotent(text):
    once = pp.preprocess(text)
    again = pp.preprocess(" ".join(once))
    assert again == once


_MENTION = re.compile(r"@\w+")
_URL = re.compile(r"https?://\S+|\bt\.co/\S+")
_BLOCKLIST = ("<br/>", "<br>", "<unk>", "@-@", "​", "‌", "‍", "﻿")


@given(tweet_like())
@settings(max_examples=300, deadline=None)
def test_no_output_token_matches_forbidden_patterns(text):
    for token in pp.preprocess(text):
        assert token  # never empty
        assert not any(ch.isspace() for ch in token)
        assert not _MENTION.search(token)
        assert not _URL.search(token)
        assert not any(junk in token for junk in _BLOCKLIST)


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_fix_repeats_never_leaves_long_runs(text):
    out = pp.fix_repeats(text)
    assert len(out) <= len(text)
    assert not re.search(r"(.)\1{2}", out, re.DOTALL)


@given(st.text(max_size=60))
@settings(max_examples=100, deadline=None)
def test_deterministic(text):
    assert pp.preprocess(text) == pp.preprocess(text)


# Inputs whose tokens changed on a second pass of the whole pipeline: the
# string rules reach a fixed point before tokenizing, so one pass suffices.
_FIXED_POINT_CASES = [
    ("X@b", ["xxatp"]),
    ("a@@b", ["axxatp"]),
    ("TTt", ["tt"]),
    ("x&AMP;y", ["x&y"]),
    ("HTTP://x.co", ["xxurl"]),
    ("_t.co/x", ["_", "xxurl"]),
    ("ht​tp://x", ["xxurl"]),
    ("@​pal", ["xxatp"]),
    ("&AMP;", ["&"]),
    ("क।ि", ["क।ि"]),
    ("&Amp;", ["&"]),
    ("aAa", ["aa"]),
]


@pytest.mark.parametrize("text,expected", _FIXED_POINT_CASES)
def test_one_pass_reaches_fixed_point(text, expected):
    out = pp.preprocess(text)
    assert out == expected
    assert pp.preprocess(" ".join(out)) == out


def test_tokenizes_once(monkeypatch):
    calls = []
    tokenize = pp.tokenize

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(pp, "tokenize", counting_tokenize)
    assert pp.preprocess("RT @abc: X@b goooood &AMP; क।ि") == [
        "xxrtu", "xxatp", "good", "&", "क।ि"
    ]
    assert len(calls) == 1


_wide_texts = st.lists(
    st.one_of(
        _alphabet,
        st.sampled_from(
            list("ABCHPTUL_") + ["।", "॥", "॰", "‌", "‍"]
            + ["&AMP;", "&#8203;", "HTTP://", "<BR>", "@-@", "RT @a"]
        ),
    ),
    max_size=40,
).map("".join)


@given(_wide_texts)
@settings(max_examples=300, deadline=None)
def test_pipeline_idempotent_wide_alphabet(text):
    out = pp.preprocess(text)
    assert pp.preprocess(" ".join(out)) == out


# -- fast paths against the unguarded pipeline -----------------------------------
# preprocess_oracle is the pipeline without its fast paths: every rule runs
# unguarded, whitespace collapses through re's \s+, every token is stemmed by
# a table scan with no memo, and every chunk goes through the punctuation
# scan. The fast paths must give the same tokens byte for byte.


def _oracle_decode(m: re.Match) -> str:
    body = m.group(1)
    if body.startswith("#"):
        try:
            code = int(body[2:], 16) if body[1] in "xX" else int(body[1:])
            if 0xD800 <= code <= 0xDFFF:
                return m.group(0)
            return chr(code)
        except (ValueError, OverflowError):
            return m.group(0)
    return pp._NAMED_ENTITIES.get(body, m.group(0))


def _oracle_round(text: str) -> str:
    """One unguarded round of the string rules."""
    while True:
        decoded = pp._ENTITY_RE.sub(_oracle_decode, text)
        if decoded == text:
            break
        text = decoded
    text = pp._RT_RE.sub("xxrtu ", text)
    text = pp._MT_RE.sub("xxrtm ", text)
    text = pp._URL_RE.sub("xxurl", text)
    text = pp._MENTION_RE.sub("xxatp", text)
    for junk in pp._BLOCKLIST_TO_SPACE:
        text = text.replace(junk, " ")
    for junk in pp._BLOCKLIST_TO_EMPTY:
        text = text.replace(junk, "")
    text = re.sub(r"\s+", " ", text).strip()
    return pp._REPEAT_RE.sub(r"\1\1", text).lower()


# preprocess repeats the string rules until a round changes nothing: for these
# inputs one round is not a fixed point, so that confirming round cannot go
# without changing their tokens
@pytest.mark.parametrize(
    "text", [text for text, _ in _FIXED_POINT_CASES if text not in ("_t.co/x", "क।ि")]
)
def test_one_round_of_the_string_rules_is_not_a_fixed_point(text):
    once = _oracle_round(text)
    assert _oracle_round(once) != once
    tokens = [part for chunk in once.split() for part in _oracle_split_punct(chunk.lower())]
    assert [_scan_stem(tok, pp.default_suffix_table()) for tok in tokens] != pp.preprocess(text)


def _oracle_split_punct(token: str) -> list[str]:
    n = len(token)
    start = 0
    while start < n and unicodedata.category(token[start]).startswith("P"):
        start += 1
    if start == n:
        return [token]
    end = n
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return [p for p in (token[:start], token[start:end], token[end:]) if p]


def preprocess_oracle(text: str) -> list[str]:
    while True:
        cleaned = _oracle_round(text)
        if cleaned == text:
            break
        text = cleaned
    tokens = [part for chunk in text.split() for part in _oracle_split_punct(chunk.lower())]
    return [_scan_stem(tok, pp.default_suffix_table()) for tok in tokens]


_SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]  # \x1c-\x1f, \x85, U+3000, ...
# characters that make a chunk's first or last character non-alphanumeric
# (Devanagari signs, punctuation) or change under lower() ("İ", "Σ")
_EDGES = list("ािंःँ़्ॅ।॥॰!?,.'\"-_…“”()#&%") + ["²", "½", "٣", "ǅ", "İ", "Σ", "ß", "x"]
_edge_tokens = st.builds(
    lambda head, core, tail: head + core + tail,
    st.text(alphabet=st.sampled_from(_EDGES), max_size=2),
    st.text(alphabet=st.sampled_from(list("abxTकखतनी1") + _EDGES), max_size=4),
    st.text(alphabet=st.sampled_from(_EDGES), max_size=2),
)
# retweet markers whose gap before the handle is any whitespace
_markers = st.builds(
    "{} {}{}@a".format,
    st.sampled_from(["", "x"]),
    st.sampled_from(["RT", "MT"]),
    st.text(alphabet=st.sampled_from(_SPACES), min_size=1, max_size=2),
)
_spaced_texts = st.lists(
    st.one_of(
        _edge_tokens, st.sampled_from(_SPACES), _alphabet, _templates, _markers,
        st.sampled_from(["RT", "MT", "@ab", "http://x", "t.co/y", "&amp;", "&#32;", "<br>"]),
    ),
    max_size=30,
).map("".join)
_any_text = st.one_of(tweet_like(), _wide_texts, _spaced_texts)


@pytest.mark.parametrize("text,expected", GOLDEN_CASES)
def test_golden_cases_match_oracle(text, expected):
    assert preprocess_oracle(text) == expected
    assert pp.preprocess(text) == preprocess_oracle(text)


@given(_any_text)
@settings(max_examples=500, deadline=None)
def test_fast_paths_match_oracle(text):
    rules = pp.fix_repeats(pp.remove_invalid(pp.deidentify(pp.html_unescape(text)))).lower()
    assert rules == _oracle_round(text)
    assert pp.preprocess(text) == preprocess_oracle(text)


@given(st.lists(_any_text, max_size=12))
@settings(max_examples=100, deadline=None)
def test_load_tsv_matches_oracle(texts):
    # one stemmer memo serves the whole file; tabs and line breaks would split rows
    texts = [re.sub(r"[\t\r\n]", " ", t) for t in texts]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.tsv"
        rows = [f"t{i}\t{t}" for i, t in enumerate(texts)]
        path.write_text("\n".join(["text_id\ttext"] + rows) + "\n", encoding="utf-8")
        loaded = [list(ex.tokens) for ex in corpus.load_tsv(path)]
    assert loaded == [preprocess_oracle(t) for t in texts]


def test_str_split_whitespace_is_re_whitespace():
    # remove_invalid collapses whitespace with str.split() in place of re's \s+
    every = "".join(map(chr, range(0x110000)))
    re_space = [m.start() for m in re.finditer(r"\s", every)]
    assert re_space == [i for i, ch in enumerate(every) if ch.isspace()]
    assert re_space == [i for i, ch in enumerate(every) if ("a" + ch + "b").split() == ["a", "b"]]


def test_no_alphanumeric_code_point_is_punctuation():
    # tokenize keeps a chunk with alphanumeric ends whole without a punctuation scan
    both = [hex(c) for c in range(0x110000)
            if chr(c).isalnum() and unicodedata.category(chr(c)).startswith("P")]
    assert both == []


class TestStemmerMemoScope:
    """A stemmer's memo must not outlive it: each table gives its own stems."""

    WORDS = ("खाता", "पीता", "खाताता")

    @pytest.fixture
    def custom(self, tmp_path):
        table = tmp_path / "suffixes.txt"
        table.write_text("ता\n", encoding="utf-8")
        return pp.load_suffix_table(table)

    def test_load_tsv_per_call(self, tmp_path, custom):
        data = tmp_path / "d.tsv"
        data.write_text("text_id\ttext\nt1\t" + " ".join(self.WORDS) + "\n", encoding="utf-8")
        by_table = {}
        for name, suffixes in [("default", None), ("custom", custom)] * 2:
            tokens = corpus.load_tsv(data, suffixes)[0].tokens
            expected = tuple(_scan_stem(w, suffixes or pp.default_suffix_table()) for w in self.WORDS)
            assert tokens == expected
            by_table[name] = tokens
        assert by_table["default"] != by_table["custom"]

    def test_stem_hindi_alternating_tables(self, custom):
        for _ in range(3):
            for word in self.WORDS:
                assert pp.stem_hindi(word) == _scan_stem(word, pp.default_suffix_table())
                assert pp.stem_hindi(word, custom) == _scan_stem(word, custom)
        assert pp.stem_hindi("खाता") != pp.stem_hindi("खाता", custom)
