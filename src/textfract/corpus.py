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
from itertools import chain, islice

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
    "recurrence_target",
    "rank_frequency",
    "slice_series",
]

# token kind codes, as stored in Document.kinds
WORD = 0
TERMINATOR = 1
OTHER = 2

# the pseudo-word into which all sentence-ending marks pool
TERMINATOR_SURFACE = "⟨.⟩"

# Character classes of the token scan. A token is a maximal run of
# letters and digits (str.isalnum) joined by single internal apostrophes
# or hyphens, or any other non-space character (not str.isspace) alone.
# "..." is made "…" first: words hold no ".", so each run of dots splits
# three at a time from its left.
_OTHER, _SPACE, _ALNUM, _JOINER, _TERMINATOR = range(5)
_JOINERS = frozenset("'’‘-")
_TERMINATORS = frozenset("….?!")


def _class_of(ch: str) -> int:
    if ch.isalnum():
        return _ALNUM
    if ch.isspace():
        return _SPACE
    return _JOINER if ch in _JOINERS else _TERMINATOR if ch in _TERMINATORS else _OTHER


_ASCII_CLASS = np.array([_class_of(chr(c)) for c in range(128)], dtype=np.uint8)
# a token's kind by the class of its first character: a word starts with a
# letter or digit, and a joiner alone is other punctuation
_KIND_OF_CLASS = np.array([OTHER, OTHER, WORD, OTHER, TERMINATOR], dtype=np.int8)

# brackets, as segment_sentences counts them: any closer closes any opener
_OPENERS = list("([{“«")
_CLOSERS = list(")]}”»")


@dataclass(frozen=True, eq=False)
class Document:
    """A tokenized text as parallel columns over its normalized ``text``:
    token i is ``text[starts[i]:ends[i]]`` and ``kinds[i]`` its kind code
    (WORD, TERMINATOR or OTHER). Documents compare and hash by identity."""

    title: str
    text: str  # NFC, with each "..." made "…"
    starts: np.ndarray  # int32 offsets into text
    ends: np.ndarray
    kinds: np.ndarray  # int8 kind codes
    source_hash: str

    @property
    def tokens(self) -> tuple:
        """The surface of every token, built on each call."""
        text = self.text
        return tuple(text[a:b] for a, b in zip(self.starts.tolist(), self.ends.tolist()))


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

    @classmethod
    def from_file(cls, path) -> "AbbreviationLexicon":
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is no entry
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


_BLOCK = 1 << 16  # characters of text scanned, or lowered into words, at once
_MAX_CHARS = int(np.iinfo(np.int32).max)  # the longest text int32 offsets can index
_WHITESPACE = re.compile(r"\s")  # str.isspace, as test_space_class_is_isspace pins


def _cuts(text: str):
    """The bounds (a, b) of the blocks that cover ``text`` in order, at
    least one: each holds ``_BLOCK`` characters or more, up to the next
    whitespace character (the next block's first), which no token holds
    or needs as a neighbour, or the end."""
    start, stop = 0, len(text)
    while True:
        space = _WHITESPACE.search(text, min(start + _BLOCK, stop))
        b = space.start() if space else stop
        yield start, b
        if b == stop:
            return
        start = b


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text``, four bytes each, read-only."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def _char_classes(text: str) -> np.ndarray:
    """The class code of each character of ``text``, as uint8: ASCII from
    a fixed table, each distinct higher code point classed once."""
    cp = _code_points(text)
    table = np.zeros(max(int(cp.max(initial=0)) + 1, 128), dtype=np.uint8)
    table[cp[cp >= 128]] = 1  # mark the higher code points present
    for c in (np.flatnonzero(table[128:]) + 128).tolist():
        table[c] = _class_of(chr(c))
    table[:128] = _ASCII_CLASS
    return table.take(cp)


def _scan(block: str, offset: int):
    """The starts and ends (int32, ``offset`` added) and kinds of the
    tokens of ``block``, a text that no token crosses into or out of."""
    cls = _char_classes(block)
    n = len(cls)
    # word characters, padded with a non-word at each end: letters and
    # digits, and each joiner with one of them on both sides
    word = np.zeros(n + 2, dtype=bool)
    np.equal(cls, _ALNUM, out=word[1:-1])
    scratch = np.equal(cls, _JOINER)
    joined = scratch[1:-1]
    joined &= word[1:-3]
    joined &= word[3:-1]
    word[2:-2] |= joined
    # a token starts at any non-space character that does not continue a
    # word; every character that continues one is a non-space
    start = np.not_equal(cls, _SPACE)
    start ^= np.logical_and(word[1:-1], word[:-2], out=scratch)
    starts = np.flatnonzero(start).astype(np.int32)
    kinds = _KIND_OF_CLASS[cls[starts]]
    ends = starts + 1
    np.logical_not(word[2:], out=scratch)
    scratch &= word[1:-1]  # the last character of each word
    ends[kinds == WORD] = np.flatnonzero(scratch) + 1
    starts += offset
    ends += offset
    return starts, ends, kinds


def tokenize(raw, title: str = "") -> Document:
    """Split raw text (bytes or str) into Word / Terminator / Other
    tokens after NFC normalization. Bytes that are not UTF-8 raise with
    the byte offset, and so does a text of 2^31 characters or more, whose
    offsets int32 cannot hold. The text is scanned one block of
    ``_cuts`` at a time."""
    raw = raw.encode("utf-8") if isinstance(raw, str) else raw
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"input is not valid utf-8 at byte {exc.start}") from exc
    source_hash = hashlib.sha256(raw).hexdigest()
    del raw  # so that one copy of the text is held at a time
    text = unicodedata.normalize("NFC", text).replace("...", "…")
    if len(text) > _MAX_CHARS:
        raise ValueError(f"text has {len(text):,} characters; token offsets are int32, "
                         f"so at most {_MAX_CHARS:,}")
    # each column's blocks are freed as the column is joined
    columns = [list(column) for column in zip(*(_scan(text[a:b], a) for a, b in _cuts(text)))]
    starts, ends, kinds = (np.concatenate(columns.pop(0)) for _ in range(3))
    return Document(title=title, text=text, starts=starts, ends=ends, kinds=kinds,
                    source_hash=source_hash)


def _folded_words(doc: Document):
    """The case-folded words of ``doc``, one per word token, in order.
    Each block of ``_cuts`` is lowered whole and split at whitespace, each
    character of a non-word token in it made a space first, so only one
    block's words are held at once. With whitespace on each side of every
    word, str.lower's final-sigma rule sees the context it sees when
    lowering the word alone."""
    text, starts, kinds = doc.text, doc.starts, doc.kinds

    def words(a, b):
        # int32 keys, as starts is: other keys would cast the whole array
        i, j = np.searchsorted(starts, np.array([a, b], dtype=np.int32)).tolist()
        cp = np.array(_code_points(text[a:b]))
        # every non-word token is one character; the rest is whitespace
        cp[starts[i:j][kinds[i:j] != WORD] - a] = ord(" ")
        return cp.tobytes().decode("utf-32-le").lower().split()

    return chain.from_iterable(words(a, b) for a, b in _cuts(text))


def segment_sentences(doc: Document, lexicon: AbbreviationLexicon | None = None):
    """Split a tokenized document into sentence spans.

    Returns (spans, report). A terminator closes the current span unless
    the first of these exception rules to fire, in this order, holds it:
    a "." after a lexicon word, a "." after a single-capital initial, a
    "…", and a mark inside an open bracket or quote; the last two only
    when the next word is not capitalized. The next word is the next
    word or terminator, if it is a word. Any closer closes any opener,
    and a closer with none open is ignored; straight double quotes
    toggle. Spans without any word are skipped, and so is an
    unterminated tail (both counted in the report). The lexicon defaults
    to the bundled English one.
    """
    lexicon = lexicon if lexicon is not None else AbbreviationLexicon.for_language("en")
    text, starts, ends, kinds = doc.text, doc.starts, doc.ends, doc.kinds
    is_word = kinds == WORD
    # every token that is not a word is one character
    nonword = np.flatnonzero(~is_word)
    surfaces = np.array([text[a] for a in starts[nonword].tolist()], dtype="U1")
    # the bracket depth is the walk of openers minus closers, clamped at 0
    walk = np.cumsum(np.isin(surfaces, _OPENERS).astype(np.int32)
                     - np.isin(surfaces, _CLOSERS))
    depth = walk - np.minimum.accumulate(np.minimum(walk, 0))
    inside = (depth > 0) | (np.cumsum(surfaces == '"') % 2 == 1)

    is_mark = kinds[nonword] == TERMINATOR
    marks, surfaces, inside = nonword[is_mark], surfaces[is_mark], inside[is_mark]
    # the lexicon and initial rules read the word before a full stop; an
    # initial is one upper-case letter
    stop = (surfaces == ".") & (marks > 0) & is_word[marks - 1]
    first, last = starts[marks[stop] - 1], ends[marks[stop] - 1]
    lexicon_hit, initial_hit, capitalized = np.zeros((3, len(marks)), dtype=bool)
    lexicon_hit[stop] = [text[a:b].lower() in lexicon.entries
                         for a, b in zip(first.tolist(), last.tolist())]
    initial_hit[stop] = last - first == 1
    initial_hit &= ~lexicon_hit
    initial_hit[initial_hit] = [text[a].isalpha() and text[a].isupper()
                                for a in starts[marks[initial_hit] - 1].tolist()]
    # the ellipsis and bracket rules hold a mark unless a capital follows
    held = ~(lexicon_hit | initial_hit) & ((surfaces == "…") | inside)
    # words and terminators in order, int32 as the keys are: with keys of
    # another dtype, searchsorted would cast the whole array. It and
    # word_chars below are whole-text columns, each dropped once read, so
    # that few are held at once
    stops = np.arange(len(kinds), dtype=np.int32)[kinds != OTHER]
    after = np.searchsorted(stops, marks[held].astype(np.int32), side="right")
    # a mark with no word or terminator after it reads itself: no capital
    after = np.minimum(after, len(stops) - 1)
    capitalized[held] = [text[a].isupper() for a in starts[stops[after]].tolist()]
    del stops
    ellipsis = held & ~capitalized & (surfaces == "…")
    bracket = held & ~capitalized & ~ellipsis
    # span boundaries: each span runs from one cut to the next
    cuts = np.concatenate(([0], marks[~(lexicon_hit | initial_hit | ellipsis | bracket)] + 1))

    trailing = len(kinds) - int(cuts[-1])
    # a span's words are its tokens less its non-word tokens
    words = np.diff(cuts) - np.diff(np.searchsorted(nonword, cuts))
    word_chars = ends - starts  # int32, as the columns are
    word_chars *= is_word
    # summed as int32: by default numpy would cast the whole column to int64
    chars = np.add.reduceat(word_chars[:cuts[-1]], cuts[:-1], dtype=np.int32)
    del word_chars
    kept = words > 0
    spans = SentenceSpans(cuts[:-1][kept], cuts[1:][kept], words[kept], chars[kept])
    report = SegmentationReport(
        n_sentences=len(spans),
        lexicon_hits=int(lexicon_hit.sum()),
        initial_hits=int(initial_hit.sum()),
        bracket_suppressions=int(bracket.sum()),
        ellipsis_continuations=int(ellipsis.sum()),
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


def recurrence_target(target: str) -> str:
    """``target`` as ``word_recurrence_series`` reads it: ``TERMINATOR_SURFACE``
    for "." or itself, else the one word token that ``tokenize`` makes of
    it, case-folded as the text's words are. Anything else raises, since
    it can match nothing."""
    if target in (".", TERMINATOR_SURFACE):
        return TERMINATOR_SURFACE
    doc = tokenize(target)
    if doc.kinds.tolist() != [WORD]:
        raise ValueError(f"target {target!r} is not one word, '.' or {TERMINATOR_SURFACE!r}")
    return next(_folded_words(doc))


def word_recurrence_series(doc: Document, target: str) -> Series:
    """Gaps, in word counts, between consecutive case-folded occurrences
    of ``target``, read by ``recurrence_target``; terminators and other
    punctuation do not advance the word index.

    Passing "." (or the pooled pseudo-word "⟨.⟩") targets the
    sentence-ending marks themselves; the resulting gaps are the word
    counts between consecutive full stops, i.e. the sentence-length
    series shifted by one sentence.
    """
    want = recurrence_target(target)
    pooled_terminators = want == TERMINATOR_SURFACE
    if pooled_terminators:
        # a mark sits at the number of words before it: its token index
        # less its place among the non-word tokens
        nonword = np.flatnonzero(doc.kinds != WORD)
        is_mark = doc.kinds[nonword] == TERMINATOR
        indices = nonword[is_mark] - np.flatnonzero(is_mark)
    else:
        indices = [i for i, w in enumerate(_folded_words(doc)) if w == want]
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
    marks = doc.kinds == TERMINATOR
    counts = Counter()  # keys in first-occurrence order
    words = _folded_words(doc)
    if include_terminators and marks.any():
        # the pooled marks first occur after the words before the first mark
        before = int(np.count_nonzero(doc.kinds[:np.argmax(marks)] == WORD))
        counts.update(islice(words, before))
        counts[TERMINATOR_SURFACE] = int(np.count_nonzero(marks))
    counts.update(words)
    # most_common sorts stably, so equal counts keep first-occurrence order
    ranked = counts.most_common()
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
