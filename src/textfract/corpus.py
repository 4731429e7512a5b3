"""Text ingestion: tokenization, orthographic sentence segmentation,
and the derived series (sentence lengths, word recurrence gaps,
rank-frequency tables).

A sentence is defined orthographically: a run of tokens closed by a
sentence-ending mark (. ? ! or an ellipsis followed by a capitalized
word), except where the mark belongs to a known abbreviation, a
single-letter initial, or sits inside an unclosed bracket/quote pair.
Segmentation is deterministic: same bytes + same lexicon = same spans.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .series import Series

__all__ = [
    "Document",
    "SentenceSpans",
    "SegmentationReport",
    "RankFrequencyTable",
    "AbbreviationLexicon",
    "tokenize",
    "segment_sentences",
    "sentence_length_series",
    "word_recurrence_series",
    "rank_frequency",
    "slice_series",
]

# token kind codes, as stored in Document.kinds
WORD = 0
TERMINATOR = 1
OTHER = 2

# the pseudo-word into which all sentence-ending marks pool
TERMINATOR_SURFACE = "⟨.⟩"

# A maximal letter/digit run joined by internal apostrophes or hyphens,
# or any other non-space character alone. "..." is made "…" first: words
# hold no ".", so each run of dots splits three at a time from its left.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’‘-][^\W_]+)*|\S")
_TERMINATORS = frozenset("….?!")

_OPENERS = {"(": ")", "[": "]", "{": "}", "“": "”", "«": "»"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}


@dataclass(frozen=True, eq=False)
class Document:
    """A tokenized text as two parallel columns: ``tokens[i]`` is the
    surface of token i and ``kinds[i]`` its kind code (WORD,
    TERMINATOR or OTHER). Documents compare and hash by identity."""

    title: str
    tokens: tuple  # str surfaces
    kinds: np.ndarray  # int8 kind codes
    source_hash: str


@dataclass(frozen=True, eq=False)
class SentenceSpans:
    """Sentences as int columns: sentence i is the tokens [starts[i],
    ends[i]), with words[i] words totalling chars[i] characters."""

    starts: np.ndarray
    ends: np.ndarray
    words: np.ndarray
    chars: np.ndarray

    def __len__(self):
        return len(self.starts)


@dataclass(frozen=True)
class SegmentationReport:
    n_sentences: int
    lexicon_hits: int
    initial_hits: int
    bracket_suppressions: int
    ellipsis_continuations: int
    empty_spans_skipped: int
    trailing_tokens_dropped: int


@dataclass(frozen=True, eq=False)
class RankFrequencyTable:
    """A Zipf table as two columns, most frequent first: ``surfaces[i]``
    has rank i + 1 and occurs ``counts[i]`` times."""

    surfaces: tuple  # str surfaces
    counts: np.ndarray  # int counts, non-increasing


class AbbreviationLexicon:
    """Per-language abbreviation list (entries like "mr.", compared
    case-insensitively against word + following period)."""

    def __init__(self, entries=()):
        self.entries = frozenset(e.lower().rstrip(".") for e in entries if e.strip())

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.entries

    def __len__(self):
        return len(self.entries)

    @classmethod
    def from_file(cls, path) -> "AbbreviationLexicon":
        with open(path, encoding="utf-8") as fh:
            return cls(line.split("#", 1)[0].strip() for line in fh)

    @classmethod
    def for_language(cls, tag: str) -> "AbbreviationLexicon":
        """Bundled lexicon for a language tag; unknown tags fall back to
        an empty lexicon (initials-only rule still applies)."""
        path = resources.files("textfract") / "lexicons" / f"{tag.lower()[:2]}.txt"
        if not path.is_file():
            return cls()
        with resources.as_file(path) as file:
            return cls.from_file(file)


def tokenize(raw, title: str = "") -> Document:
    """Split raw text (bytes or str) into Word / Terminator / Other
    tokens after NFC normalization. Bytes that are not UTF-8 raise with
    the byte offset."""
    raw = raw.encode("utf-8") if isinstance(raw, str) else raw
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"input is not valid utf-8 at byte {exc.start}") from exc
    surfaces = _TOKEN_RE.findall(unicodedata.normalize("NFC", text).replace("...", "…"))
    # [^\W_] is str.isalnum, so only a word starts with a letter or digit
    kinds = [TERMINATOR if s in _TERMINATORS else WORD if s[0].isalnum() else OTHER
             for s in surfaces]
    return Document(
        title=title,
        tokens=tuple(surfaces),
        kinds=np.array(kinds, dtype=np.int8),
        source_hash=hashlib.sha256(raw).hexdigest(),
    )


def _is_initial(word: str) -> bool:
    return len(word) == 1 and word.isalpha() and word.isupper()


def _running_total(values) -> np.ndarray:
    """Prefix sums with a leading 0: entry i totals values[:i]."""
    return np.concatenate(([0], np.cumsum(values)))


def segment_sentences(doc: Document, lexicon: AbbreviationLexicon | None = None):
    """Split a tokenized document into sentence spans.

    Returns (spans, report). A terminator closes the current span
    unless one of the exception rules fires; spans without any word are
    skipped, and so is an unterminated tail (both counted in the report).
    The lexicon defaults to the bundled English one.
    """
    lexicon = lexicon if lexicon is not None else AbbreviationLexicon.for_language("en")
    tokens, kinds = doc.tokens, doc.kinds
    is_word = kinds == WORD
    # words and terminators in token order: the word after a mark, if
    # any, is the next entry here, unless a terminator comes first
    stops = np.flatnonzero(kinds != OTHER)

    def next_word_capitalized(i: int) -> bool:
        j = np.searchsorted(stops, i, side="right")
        if j == len(stops) or not is_word[stops[j]]:
            return False
        return tokens[stops[j]][0].isupper()

    cuts = [0]  # span boundaries: each span runs from one cut to the next
    lexicon_hits = initial_hits = bracket_suppr = ellipsis_cont = 0
    depth = 0
    quote_open = False  # straight double quotes toggle

    nonword = np.flatnonzero(~is_word)
    for i, kind in zip(nonword.tolist(), kinds[nonword].tolist()):
        surface = tokens[i]
        if kind == OTHER:
            if surface in _OPENERS:
                depth += 1
            elif surface in _CLOSERS:
                depth = max(0, depth - 1)
            elif surface == '"':
                quote_open = not quote_open
            continue

        if surface == "." and i > 0 and is_word[i - 1]:
            if tokens[i - 1] in lexicon:
                lexicon_hits += 1
                continue
            if _is_initial(tokens[i - 1]):
                initial_hits += 1
                continue
        if surface == "…" and not next_word_capitalized(i):
            ellipsis_cont += 1
            continue
        if (depth > 0 or quote_open) and not next_word_capitalized(i):
            bracket_suppr += 1
            continue
        cuts.append(i + 1)

    trailing = len(tokens) - cuts[-1]
    cuts = np.asarray(cuts)
    word_chars = np.fromiter(map(len, tokens), dtype=int, count=len(tokens)) * is_word
    words = np.diff(_running_total(is_word)[cuts])
    chars = np.diff(_running_total(word_chars)[cuts])
    kept = words > 0
    spans = SentenceSpans(cuts[:-1][kept], cuts[1:][kept], words[kept], chars[kept])
    report = SegmentationReport(
        n_sentences=len(spans),
        lexicon_hits=lexicon_hits,
        initial_hits=initial_hits,
        bracket_suppressions=bracket_suppr,
        ellipsis_continuations=ellipsis_cont,
        empty_spans_skipped=int((~kept).sum()),
        trailing_tokens_dropped=trailing,
    )
    return spans, report


def sentence_length_series(spans, unit: str = "words",
                           source: dict | None = None) -> Series:
    """Series l(j) of per-sentence word (or character) counts; the
    provenance records ``source`` and ``unit``."""
    if not len(spans):
        raise ValueError("no sentences to build a series from")
    if unit not in ("words", "characters"):
        raise ValueError(f"unknown unit {unit!r}")
    values = spans.words if unit == "words" else spans.chars
    return Series(values, provenance={"source": dict(source or {}), "unit": unit})


def word_recurrence_series(doc: Document, target: str) -> Series:
    """Gaps, in word counts, between consecutive case-folded occurrences
    of ``target``; terminators and other punctuation do not advance the
    word index.

    Passing "." (or the pooled pseudo-word "⟨.⟩") targets the
    sentence-ending marks themselves; the resulting gaps are the word
    counts between consecutive full stops, i.e. the sentence-length
    series shifted by one sentence.
    """
    pooled_terminators = target in (".", TERMINATOR_SURFACE)
    is_word = doc.kinds == WORD
    if pooled_terminators:
        hit = doc.kinds == TERMINATOR
    else:
        want = target.lower()
        hit = is_word & np.fromiter((s == want for s in map(str.lower, doc.tokens)),
                                    dtype=bool, count=len(doc.tokens))
    # an occurrence sits at the number of words before it
    indices = _running_total(is_word)[:-1][hit]
    if len(indices) < 2:
        raise ValueError(
            f"target {target!r} occurs {len(indices)} time(s); need >= 2"
        )
    gaps = np.diff(indices)
    if pooled_terminators:
        # back-to-back marks ("?!", "...") delimit empty spans, which
        # segmentation also skips
        gaps = gaps[gaps > 0]
    return Series(gaps, provenance={"title": doc.title, "source_hash": doc.source_hash,
                                    "fold_case": True})


def rank_frequency(doc: Document, include_terminators: bool = False) -> RankFrequencyTable:
    """Zipf table: case-folded words ranked by count, descending, ties
    broken by first occurrence. With ``include_terminators`` all
    sentence-ending marks pool into one pseudo-word, ``TERMINATOR_SURFACE``."""
    keys = (
        TERMINATOR_SURFACE if kind == TERMINATOR else surface.lower()
        for surface, kind in zip(doc.tokens, doc.kinds.tolist())
        if kind == WORD or (kind == TERMINATOR and include_terminators)
    )
    # most_common sorts stably, so equal counts keep first-occurrence order
    ranked = Counter(keys).most_common()
    if not ranked:
        raise ValueError("no words to rank")
    surfaces, counts = zip(*ranked)
    return RankFrequencyTable(surfaces=surfaces, counts=np.array(counts, dtype=int))


def slice_series(series: Series, start: int, stop: int) -> Series:
    """Contiguous subseries over 1-based inclusive indices, recorded in
    the provenance."""
    if not (1 <= start <= stop <= len(series)):
        raise ValueError(f"slice [{start}, {stop}] out of range 1..{len(series)}")
    return Series(series.values[start - 1 : stop],
                  provenance={**series.provenance, "slice": [start, stop]})
