"""Deterministic tweet normalization.

The pipeline turns a raw tweet into a list of tokens:

    html entities -> placeholders (mentions, retweets, urls) -> junk removal
    -> repeat-character collapse -> lowercasing -> tokenization
    -> Devanagari stemming

The string rules (everything before tokenization) repeat until the text stops
changing; tokenization and stemming then run once, and the rules are written
so that preprocessing the joined output is a no-op.

Every step is a pure function on strings (a stemmer's memo only caches its
own results), so the whole pipeline is safe to call concurrently and produces
byte-identical output for identical input.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from importlib import resources

from .fileio import utf8_line_errors

__all__ = [
    "PLACEHOLDERS",
    "deidentify",
    "fix_repeats",
    "remove_invalid",
    "html_unescape",
    "stem_hindi",
    "tokenize",
    "preprocess",
    "load_suffix_table",
    "default_suffix_table",
]

# Placeholder tokens emitted by deidentify. They are ordinary lowercase Latin
# strings so they survive tokenization and lowercasing unchanged.
PLACEHOLDERS = ("xxatp", "xxurl", "xxrtm", "xxrtu", "xxunk", "xxpad")

# Retweet/modified-tweet markers are matched case-sensitively (Twitter uses
# uppercase RT/MT); the pattern swallows trailing whitespace so the
# replacement never glues onto the following word.
_RT_RE = re.compile(r"\bRT\s+@\w+:?\s*")
_MT_RE = re.compile(r"\bMT\s+@\w+:?\s*")
# URL grammar: a scheme followed by a non-space run, or a bare t.co link. The
# t.co link may follow "_" because tokenize splits that off as punctuation.
_URL_RE = re.compile(r"https?://\S+|(?<![^\W_])t\.co/\S+")
# Mention grammar: @ followed by at least one word character.
_MENTION_RE = re.compile(r"@\w+")

_REPEAT_RE = re.compile(r"(.)\1{2,}", re.DOTALL)

# Markup-ish junk becomes a space (it separated words in the source markup);
# invisible characters are dropped outright so they never split a word.
_BLOCKLIST_TO_SPACE = ("<br/>", "<br>", "<unk>", "@-@")
_BLOCKLIST_TO_EMPTY = ("​", "‌", "‍", "﻿")

_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
}
_ENTITY_RE = re.compile(r"&(#[0-9]+|#[xX][0-9a-fA-F]+|[a-zA-Z]+);")

# The Devanagari block U+0900-U+097F without its punctuation: danda (U+0964),
# double danda (U+0965) and the abbreviation sign (U+0970).
_DEVANAGARI_RE = re.compile("[\u0900-\u0963\u0966-\u096f\u0971-\u097f]+")


def html_unescape(text: str) -> str:
    """Decode decimal/hex character references and six common named entities.

    Unknown entities and references to code points that cannot be encoded
    (beyond U+10FFFF, or UTF-16 surrogates U+D800-U+DFFF) are left verbatim.
    Decoding repeats until the text is stable, so double-escaped input like
    ``&amp;#64;`` fully resolves to ``@`` before any placeholder matching runs.
    """

    def _decode(m: re.Match) -> str:
        body = m.group(1)
        if body.startswith("#"):
            try:
                code = int(body[2:], 16) if body[1] in "xX" else int(body[1:])
                if 0xD800 <= code <= 0xDFFF:
                    return m.group(0)
                return chr(code)
            except (ValueError, OverflowError):
                return m.group(0)
        return _NAMED_ENTITIES.get(body, m.group(0))

    if "&" not in text:  # every reference starts with "&"
        return text
    while True:
        decoded = _ENTITY_RE.sub(_decode, text)
        if decoded == text:
            return decoded
        text = decoded


def deidentify(text: str) -> str:
    """Replace retweet markers, mentions, and URLs with placeholder tokens."""
    # Each pattern runs only if the text holds a literal that every match of
    # it contains, which is much cheaper than a failed regex scan.
    if "RT" in text:
        text = _RT_RE.sub("xxrtu ", text)
    if "MT" in text:
        text = _MT_RE.sub("xxrtm ", text)
    if "://" in text or "t.co/" in text:
        text = _URL_RE.sub("xxurl", text)
    if "@" in text:
        text = _MENTION_RE.sub("xxatp", text)
    return text


def remove_invalid(text: str) -> str:
    """Strip blocklisted junk and collapse whitespace runs to single spaces."""
    for junk in _BLOCKLIST_TO_SPACE:
        text = text.replace(junk, " ")
    for junk in _BLOCKLIST_TO_EMPTY:
        text = text.replace(junk, "")
    return " ".join(text.split())


def fix_repeats(text: str) -> str:
    """Collapse every run of 3+ identical scalars to exactly 2 (goooood -> good)."""
    return _REPEAT_RE.sub(r"\1\1", text)


def load_suffix_table(path) -> tuple[str, ...]:
    """Read a suffix table: UTF-8, one suffix per line, ``#`` comment lines.

    The returned table is sorted longest-first regardless of file order. An
    invalid byte is one ValueError naming the file and the line.
    """
    suffixes = []
    try:
        with open(path, encoding="utf-8") as fh, utf8_line_errors(path):
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                suffixes.append(line)
    except ValueError as exc:
        raise ValueError(f"suffix table {path}: {exc}") from None
    return tuple(sorted(suffixes, key=lambda s: (-len(s), s)))


@functools.cache
def default_suffix_table() -> tuple[str, ...]:
    """Suffix table shipped with the package."""
    ref = resources.files("hofkit").joinpath("data/hindi_suffixes.txt")
    with resources.as_file(ref) as path:
        return load_suffix_table(path)


def _is_devanagari(token: str) -> bool:
    # A token holding punctuation is not stemmed: stripping a suffix could
    # leave the punctuation at its edge, where tokenize would split it off.
    return _DEVANAGARI_RE.fullmatch(token) is not None


@functools.lru_cache(maxsize=8)
def _suffix_index(suffixes: tuple[str, ...]) -> tuple[dict, tuple[int, ...]]:
    """Each distinct suffix's first position in the table, and the lengths longest first."""
    position: dict[str, int] = {}
    for pos, suf in enumerate(suffixes):
        position.setdefault(suf, pos)
    return position, tuple(sorted({len(suf) for suf in position}, reverse=True))


def stem_hindi(word: str, suffixes: tuple[str, ...] | None = None) -> str:
    """Suffix-stripping stemmer for Devanagari tokens.

    Repeatedly strips the matching suffix that comes first in the table
    (the longest, for tables from ``load_suffix_table``) while the remaining
    stem keeps at least one character; iterating to a fixed point makes
    stemming idempotent, which the pipeline relies on. Non-Devanagari tokens
    pass through unchanged.
    """
    return _stemmer(suffixes)(word)


def _stemmer(suffixes: tuple[str, ...] | None):
    """``stem_hindi`` for one table, with the table's suffix index looked up once.

    The stemmer remembers the stem of every word it has seen, so one stemmer
    serves a whole file (``corpus.load_tsv`` builds one per call) and its memo
    is dropped with it; nothing is remembered across files or tables.
    """
    if suffixes is None:
        suffixes = default_suffix_table()
    position, lengths = _suffix_index(suffixes)
    memo: dict[str, str] = {}

    def strip(word: str) -> str:
        if not _is_devanagari(word):
            return word
        while True:
            # one lookup per suffix length finds every matching suffix
            best = None
            for n in lengths:
                if n < len(word):
                    pos = position.get(word[len(word) - n :])
                    if pos is not None and (best is None or pos < best):
                        best = pos
            if best is None:
                return word
            word = word[: -len(suffixes[best])]

    def stem(word: str) -> str:
        stemmed = memo.get(word)
        if stemmed is None:
            stemmed = memo[word] = strip(word)
        return stemmed

    return stem


def _split_punct(token: str) -> list[str]:
    """Detach leading/trailing punctuation runs as separate tokens."""
    n = len(token)
    start = 0
    while start < n and unicodedata.category(token[start]).startswith("P"):
        start += 1
    if start == n:  # all punctuation: keep the run whole
        return [token]
    end = n
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    parts = []
    if start > 0:
        parts.append(token[:start])
    parts.append(token[start:end])
    if end < n:
        parts.append(token[end:])
    return parts


def tokenize(text: str) -> list[str]:
    """Whitespace-split, detach edge punctuation, lowercase (Devanagari has no case)."""
    tokens: list[str] = []
    for chunk in text.split():
        chunk = chunk.lower()
        # No alphanumeric code point is punctuation (category P*), so a chunk
        # with alphanumeric ends has nothing to detach.
        if chunk[0].isalnum() and chunk[-1].isalnum():
            tokens.append(chunk)
        else:
            tokens.extend(_split_punct(chunk))
    return tokens


def preprocess(text: str, *, stem=None) -> list[str]:
    """Full normalization pipeline; returns the token stream for one tweet.

    The string rules (entities, placeholders, junk, repeats, lowercasing) are
    applied in a fixed order until the text stops changing; tokenization and
    stemming then run once. Preprocessing the joined output is a no-op.

    ``stem`` is a stemmer built by ``_stemmer`` and shared by the tweets of one
    file, so that each distinct token is stemmed once. Without it each call
    builds its own, over the default table.
    """
    # The loop ends: after the first round the text is lowercase, and any
    # later round that changes it removes an "&" (an entity decoded), or keeps
    # the "&" count and removes an "@", or keeps both counts and shortens it.
    while True:
        cleaned = fix_repeats(remove_invalid(deidentify(html_unescape(text)))).lower()
        if cleaned == text:
            break
        text = cleaned
    if stem is None:
        stem = _stemmer(None)
    return [stem(tok) for tok in tokenize(text)]
