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
import unicodedata
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain

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

_OPENERS = {"(": ")", "[": "]", "{": "}", "“": "”", "«": "»"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}


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


# the codec that turns code points of each width back into text
_CODECS = {1: "ascii", 4: "utf-32-le"}
_BLOCK = 1 << 16  # characters of text scanned, or lowered into words, at once
_MAX_CHARS = int(np.iinfo(np.int32).max)  # the longest text int32 offsets can index


def _cuts(text: str, start: int = 0, stop: int | None = None):
    """The bounds (a, b) of the blocks that cover ``text[start:stop]`` in
    order, at least one: each holds ``_BLOCK`` characters or more, up to
    the next space (the next block's first character) or ``stop``. A
    block with no space after its first ``_BLOCK`` characters runs to
    ``stop``."""
    stop = len(text) if stop is None else stop
    while True:
        b = text.find(" ", min(start + _BLOCK, stop), stop)
        b = stop if b < 0 else b
        yield start, b
        if b == stop:
            return
        start = b


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text``, read-only: one byte each for an ASCII
    text, else four."""
    # One byte each keeps the buffer of an ASCII block of ``_BLOCK``
    # characters at 64 kB, below glibc malloc's 128 kB mmap threshold;
    # four would make it 256 kB. A freed mmap buffer raises that threshold:
    # after the 3 MB buffer of a whole 756k-character novel, `wavelet`'s
    # 36 MB CSV that follows peaked 2 MB higher.
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def _char_classes(text: str) -> np.ndarray:
    """The class code of each character of ``text``, as uint8: ASCII from
    a fixed table, each distinct higher code point classed once."""
    cp = _code_points(text)
    if not len(cp) or cp.max() < 128:
        return _ASCII_CLASS[cp]
    table = np.zeros(int(cp.max()) + 1, dtype=np.uint8)
    table[cp] = 1  # mark the code points present
    for c in (np.flatnonzero(table[128:]) + 128).tolist():
        table[c] = _class_of(chr(c))
    table[:128] = _ASCII_CLASS
    return table[cp]


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
    offsets int32 cannot hold. The text is scanned one block of about
    ``_BLOCK`` characters at a time, cut at a space, which no token
    crosses and which no joiner needs as a neighbour."""
    raw = raw.encode("utf-8") if isinstance(raw, str) else raw
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"input is not valid utf-8 at byte {exc.start}") from exc
    text = unicodedata.normalize("NFC", text).replace("...", "…")
    if len(text) > _MAX_CHARS:
        raise ValueError(f"text has {len(text):,} characters; token offsets are int32, "
                         f"so at most {_MAX_CHARS:,}")
    blocks = [_scan(text[a:b], a) for a, b in _cuts(text)]
    starts, ends, kinds = (np.concatenate(column) for column in zip(*blocks))
    return Document(title=title, text=text, starts=starts, ends=ends, kinds=kinds,
                    source_hash=hashlib.sha256(raw).hexdigest())


def _word_text(doc: Document) -> str:
    """``doc.text`` with each character outside a word made a space."""
    is_word = doc.kinds == WORD
    edges = np.zeros(len(doc.text) + 1, dtype=np.int8)
    edges[doc.starts[is_word]] = 1
    edges[doc.ends[is_word]] = -1  # no word starts where another ends
    cp = _code_points(doc.text).copy()
    cp[np.cumsum(edges[:-1], dtype=np.int8) == 0] = ord(" ")
    return cp.tobytes().decode(_CODECS[cp.itemsize])


def _folded_words(text: str, start: int = 0, stop: int | None = None):
    """The case-folded words of a ``_word_text`` from ``start`` to
    ``stop`` (each an end or a space), in order. Blocks of about
    ``_BLOCK`` characters, cut at a space, are lowered whole and split
    at whitespace, so only one block's words are held at once. With a
    space on each side of every word, str.lower's final-sigma rule sees
    the context it sees when lowering the word alone."""
    return chain.from_iterable(text[a:b].lower().split() for a, b in _cuts(text, start, stop))


def _is_initial(word: str) -> bool:
    return len(word) == 1 and word.isalpha() and word.isupper()


def _running_total(values) -> np.ndarray:
    """Prefix sums with a leading 0, as int32: entry i totals values[:i].
    Every total here counts tokens or characters of one text, which
    ``tokenize`` holds below 2^31."""
    total = np.zeros(len(values) + 1, dtype=np.int32)
    np.cumsum(values, dtype=np.int32, out=total[1:])
    return total


def segment_sentences(doc: Document, lexicon: AbbreviationLexicon | None = None):
    """Split a tokenized document into sentence spans.

    Returns (spans, report). A terminator closes the current span
    unless one of the exception rules fires; spans without any word are
    skipped, and so is an unterminated tail (both counted in the report).
    The lexicon defaults to the bundled English one.
    """
    lexicon = lexicon if lexicon is not None else AbbreviationLexicon.for_language("en")
    text, starts, ends, kinds = doc.text, doc.starts, doc.ends, doc.kinds
    is_word = kinds == WORD
    # words and terminators in token order: the word after a mark, if
    # any, is the next entry here, unless a terminator comes first
    stops = np.flatnonzero(kinds != OTHER).astype(np.int32)

    def next_word_capitalized(i: int) -> bool:
        j = np.searchsorted(stops, i, side="right")
        if j == len(stops) or not is_word[stops[j]]:
            return False
        return text[starts[stops[j]]].isupper()

    cuts = [0]  # span boundaries: each span runs from one cut to the next
    lexicon_hits = initial_hits = bracket_suppr = ellipsis_cont = 0
    depth = 0
    quote_open = False  # straight double quotes toggle

    # every token that is not a word is one character
    nonword = np.flatnonzero(~is_word)
    for i, kind, start in zip(nonword.tolist(), kinds[nonword].tolist(),
                              starts[nonword].tolist()):
        surface = text[start]
        if kind == OTHER:
            if surface in _OPENERS:
                depth += 1
            elif surface in _CLOSERS:
                depth = max(0, depth - 1)
            elif surface == '"':
                quote_open = not quote_open
            continue

        if surface == "." and i > 0 and is_word[i - 1]:
            before = text[starts[i - 1]:ends[i - 1]]
            if before in lexicon:
                lexicon_hits += 1
                continue
            if _is_initial(before):
                initial_hits += 1
                continue
        if surface == "…" and not next_word_capitalized(i):
            ellipsis_cont += 1
            continue
        if (depth > 0 or quote_open) and not next_word_capitalized(i):
            bracket_suppr += 1
            continue
        cuts.append(i + 1)

    trailing = len(kinds) - cuts[-1]
    cuts = np.asarray(cuts)
    word_chars = (ends - starts) * is_word  # int32, as the columns are
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
        # a mark sits at the number of words before it
        indices = _running_total(is_word)[:-1][doc.kinds == TERMINATOR]
    else:
        want = target.lower()
        words = _folded_words(_word_text(doc))
        indices = [i for i, w in enumerate(words) if w == want]
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
    text = _word_text(doc)
    marks = doc.kinds == TERMINATOR
    counts = Counter()  # keys in first-occurrence order
    cut = 0
    if include_terminators and marks.any():
        # the pooled marks first occur at the first mark, a space in text
        cut = int(doc.starts[np.argmax(marks)])
        counts.update(_folded_words(text, 0, cut))
        counts[TERMINATOR_SURFACE] = int(np.count_nonzero(marks))
    counts.update(_folded_words(text, cut))
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
