import hashlib
import re
import sys
import tracemalloc
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import textfract as tf
from textfract import corpus
from textfract.corpus import OTHER, TERMINATOR, TERMINATOR_SURFACE, WORD, AbbreviationLexicon
from _novel import build_novel
from seg_fixtures import CASES

# pieces of random texts that exercise every segmentation rule
SOUP = ["Alma", "Bert", "Oslo", "the", "cat", "ran", "Mr", "A", "J",
        ".", "?", "!", "...", "…", "(", ")", "[", "]", '"', "“", "”", ","]

# pieces of drawn texts for the tokenizer: every mark the scan or the
# kinds tell apart, digits, combining marks (e + U+0301 composes under NFC),
# a zero-width space, rarer spaces, ligatures, letters of several scripts
# (Σ lowers to ς at the end of a word), and a letter and a symbol outside
# the BMP
TOKEN_PIECES = ["...", ".", "…", "?", "!", "'", "’", "‘", "-", "_", "\u0301", "\u0308",
                "7", "٣", "²", "(", ")", "[", "]", "«", "»", '"', "“", "”", ",",
                " ", "\n", "\t", "\u00a0", "\u200b", "\x1c", "\u2028", "\u3000",
                "a", "Q", "e", "é", "ж", "Ω", "Σ", "中", "ǅ", "ﬁ", "ｆ", "𝐀", "😀"]

# The reference tokenizer: one regex match per token, its kind read from
# the named group that matched. tokenize must agree with it exactly.
ORACLE_RE = re.compile(
    r"(?P<ellipsis>\.\.\.|…)"
    r"|(?P<word>[^\W_]+(?:['’‘-][^\W_]+)*)"
    r"|(?P<term>[.?!])"
    r"|(?P<other>\S)",
    re.UNICODE,
)
ORACLE_KIND = {"ellipsis": TERMINATOR, "word": WORD, "term": TERMINATOR, "other": OTHER}


def oracle_tokenize(text):
    surfaces, kinds = [], []
    for m in ORACLE_RE.finditer(unicodedata.normalize("NFC", text)):
        kinds.append(ORACLE_KIND[m.lastgroup])
        surfaces.append("…" if m.lastgroup == "ellipsis" else m.group())
    return tuple(surfaces), kinds


def assert_matches_oracle(text):
    doc = tf.tokenize(text)
    surfaces, kinds = oracle_tokenize(text)
    assert doc.tokens == surfaces
    assert doc.kinds.tolist() == kinds
    assert doc.kinds.dtype == np.int8
    assert doc.starts.dtype == doc.ends.dtype == np.int32


def each_block_size(test):
    """Runs ``test`` with the corpus blocks (of the token scan and of the
    word lists) at ``_BLOCK`` as it is, then at about two characters."""
    for block in (corpus._BLOCK, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "_BLOCK", block)
            test()


def drawn_texts(pieces=TOKEN_PIECES):
    """Texts of 20 to 60 pieces, each followed by a space or not."""
    return st.lists(st.tuples(st.sampled_from(pieces), st.sampled_from(["", " "])),
                    min_size=20, max_size=60).map(lambda p: "".join(map("".join, p)))


def words_of(doc):
    return [s for s, k in zip(doc.tokens, doc.kinds) if k == WORD]


# The reference segmenter: the rules of segment_sentences as one pass over
# the tokens, each state change and rule in the order the docstring gives.
# segment_sentences must agree with it exactly.
REF_OPENERS, REF_CLOSERS = "([{“«", ")]}”»"


def reference_segment(doc, lexicon):
    text, starts, ends, kinds = doc.text, doc.starts, doc.ends, doc.kinds
    is_word = kinds == WORD
    # words and terminators in token order: the word after a mark, if
    # any, is the next entry here, unless a terminator comes first
    stops = np.flatnonzero(kinds != OTHER)

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
            if surface in REF_OPENERS:
                depth += 1
            elif surface in REF_CLOSERS:
                depth = max(0, depth - 1)
            elif surface == '"':
                quote_open = not quote_open
            continue

        if surface == "." and i > 0 and is_word[i - 1]:
            before = text[starts[i - 1]:ends[i - 1]]
            if before.lower() in lexicon.entries:
                lexicon_hits += 1
                continue
            if len(before) == 1 and before.isalpha() and before.isupper():
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
    words = np.diff(np.concatenate(([0], np.cumsum(is_word)))[cuts])
    chars = np.diff(np.concatenate(([0], np.cumsum((ends - starts) * is_word)))[cuts])
    kept = words > 0
    spans = corpus.SentenceSpans(cuts[:-1][kept], cuts[1:][kept], words[kept], chars[kept])
    report = corpus.SegmentationReport(
        n_sentences=len(spans),
        lexicon_hits=lexicon_hits,
        initial_hits=initial_hits,
        bracket_suppressions=bracket_suppr,
        ellipsis_continuations=ellipsis_cont,
        empty_spans_skipped=int((~kept).sum()),
        trailing_tokens_dropped=trailing,
    )
    return spans, report


REF_LEXICONS = {tag: AbbreviationLexicon.for_language(tag) for tag in ("en", "de", "xx")}


def assert_matches_reference(text, tag):
    doc = tf.tokenize(text)
    lexicon = REF_LEXICONS[tag]
    spans, report = tf.segment_sentences(doc, lexicon)
    want_spans, want_report = reference_segment(doc, lexicon)
    for column in ("starts", "ends", "words", "chars"):
        assert getattr(spans, column).tolist() == getattr(want_spans, column).tolist(), column
    assert report == want_report


class TestTokenize:
    def test_minimal_sentence(self):
        doc = tf.tokenize("He left.")
        assert list(zip(doc.kinds.tolist(), doc.tokens)) == [
            (WORD, "He"), (WORD, "left"), (TERMINATOR, "."),
        ]

    def test_empty_input(self):
        assert tf.tokenize("").tokens == ()

    def test_micro_text_hand_count(self):
        doc = tf.tokenize("Go now. Stop.")
        kinds = doc.kinds.tolist()
        assert kinds.count(WORD) == 3
        assert kinds.count(TERMINATOR) == 2

    def test_hyphen_apostrophe_numeral(self):
        doc = tf.tokenize("well-known don't 42 3,5")
        assert words_of(doc) == ["well-known", "don't", "42", "3", "5"]

    def test_ellipsis_is_single_token(self):
        doc = tf.tokenize("so... and …")
        surfs = [s for s, k in zip(doc.tokens, doc.kinds) if k == TERMINATOR]
        assert surfs == ["…", "…"]

    def test_bytes_input_and_hash(self):
        a = tf.tokenize(b"He left.")
        b = tf.tokenize("He left.")
        assert a.source_hash == b.source_hash
        assert len(a.source_hash) == 64

    def test_bad_bytes_report_offset(self):
        with pytest.raises(ValueError, match="byte 3"):
            tf.tokenize(b"abc\xff")

    def test_unicode_normalization_fixed(self):
        decomposed = "Café."  # e + combining acute
        composed = "Café."
        assert words_of(tf.tokenize(decomposed)) == words_of(tf.tokenize(composed))

    def test_deterministic(self):
        text = "Mr. Smith went (quietly?) home... Then he slept."
        d1 = tf.tokenize(text)
        d2 = tf.tokenize(text)
        assert d1.tokens == d2.tokens
        assert d1.kinds.tolist() == d2.kinds.tolist()

    def test_documents_compare_and_hash_by_identity(self):
        a, b = tf.tokenize("He left."), tf.tokenize("He left.")
        assert a == a and a != b
        assert len({a, b, a}) == 2

    # "..." is made "…" before the scan: every run of dots must split as
    # the reference splits it, three at a time from the left
    @pytest.mark.parametrize("text", [
        *(c[0] for c in CASES), "..", "....", ".....", "......", "a...b", "a....b",
        "…...", "?...!", "x_y 3.14 ’tis rock-’n’-roll", "e\u0301...E\u0301",
    ])
    def test_matches_oracle(self, text):
        each_block_size(lambda: assert_matches_oracle(text))

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=40).map("".join))
    @example("Wait.... What?! ’Twas «ﬁne»...")
    def test_matches_oracle_on_drawn_text(self, text):
        each_block_size(lambda: assert_matches_oracle(text))

    def test_blocks_are_cut_at_any_whitespace(self, monkeypatch):
        # each block past the first starts at the first whitespace character
        # _BLOCK or more characters into the one before it
        monkeypatch.setattr(corpus, "_BLOCK", 2)
        text = "He\nleft.\tShe\u00a0stayed,\u3000well-known…\n"
        cuts = list(corpus._cuts(text))
        assert cuts == [(0, 2), (2, 8), (8, 12), (12, 20), (20, 32), (32, 33)]
        assert [text[a] for a, _ in cuts[1:]] == ["\n", "\t", "\u00a0", "\u3000", "\n"]
        assert_matches_oracle(text)

    def test_offsets_past_int32_are_rejected(self, monkeypatch):
        # the bound is 2^31 - 1 characters; patched, so no 2 GiB text is made
        assert corpus._MAX_CHARS == 2**31 - 1
        monkeypatch.setattr(corpus, "_MAX_CHARS", 8)
        assert tf.tokenize("Cafe\u0301 ok.").tokens == ("Café", "ok", ".")  # 8 after NFC
        with pytest.raises(ValueError, match="^text has 9 characters; token offsets are "
                                             "int32, so at most 8$"):
            tf.tokenize("He left.!")

    def test_word_class_is_isalnum(self):
        # the scan takes words by [^\W_], the kinds by str.isalnum: the two
        # must accept the same code points
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall(r"[^\W_]", every)) == set(filter(str.isalnum, every))

    def test_space_class_is_isspace(self):
        # the reference splits at \s, the scan at str.isspace: the two must
        # accept the same code points
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall(r"\s", every)) == set(filter(str.isspace, every))


class TestSegmentation:
    @pytest.mark.parametrize("text,expected", CASES,
                             ids=[c[0][:30] for c in CASES])
    def test_hand_labeled_fixture(self, text, expected):
        def test():
            sentences, _ = tf.segment_sentences(tf.tokenize(text))
            assert sentences.words.tolist() == expected

        each_block_size(test)

    def test_plain_declaratives_count(self):
        n = 40
        text = " ".join(f"Sentence number {i} here." for i in range(n))
        sentences, report = tf.segment_sentences(tf.tokenize(text))
        assert len(sentences) == n
        assert report.n_sentences == n

    def test_report_counts_exceptions(self):
        text = "Mr. Low met A. Binn. He asked (who?) twice. End now"
        _, report = tf.segment_sentences(tf.tokenize(text))
        assert report.lexicon_hits == 1
        assert report.initial_hits == 1
        assert report.bracket_suppressions == 1
        assert report.trailing_tokens_dropped > 0

    def test_unknown_language_falls_back_to_initials_only(self):
        doc = tf.tokenize("Mr. Smith left. He ran.")
        sents, _ = tf.segment_sentences(doc, tf.AbbreviationLexicon.for_language("xx"))
        # without a lexicon "Mr." splits; initials rule alone remains
        assert sents.words.tolist() == [1, 2, 2]

    def test_word_sum_bounded_by_document(self):
        text = "First one. Second one here. dangling tail"
        doc = tf.tokenize(text)
        sents, _ = tf.segment_sentences(doc)
        total_words = int((doc.kinds == WORD).sum())
        assert sents.words.sum() <= total_words

    def test_deterministic_spans(self):
        text = "Dr. Hale saw (them!) arrive... Then all was still. End."
        doc = tf.tokenize(text)
        a, _ = tf.segment_sentences(doc)
        b, _ = tf.segment_sentences(doc)
        for column in ("starts", "ends", "words", "chars"):
            assert getattr(a, column).tolist() == getattr(b, column).tolist()

    @given(st.lists(st.sampled_from(SOUP), max_size=60))
    def test_span_invariants_on_token_soup(self, pieces):
        doc = tf.tokenize(" ".join(pieces))
        sents, report = tf.segment_sentences(doc)
        n = len(doc.tokens)
        is_word = [k == WORD for k in doc.kinds.tolist()]
        assert report.n_sentences == len(sents)
        prev_end = 0
        for start, end, words, chars in zip(sents.starts, sents.ends,
                                            sents.words, sents.chars):
            assert prev_end <= start < end <= n
            prev_end = end
            assert doc.kinds[end - 1] == TERMINATOR
            span = range(start, end)
            assert words == sum(is_word[i] for i in span) >= 1
            assert chars == sum(len(doc.tokens[i]) for i in span if is_word[i])
        tail_words = sum(is_word[n - report.trailing_tokens_dropped:])
        assert sents.words.sum() + tail_words == sum(is_word)

    @settings(max_examples=300)
    @given(st.one_of(st.lists(st.sampled_from(SOUP), max_size=60).map(" ".join),
                     drawn_texts(TOKEN_PIECES + SOUP)),
           st.sampled_from(sorted(REF_LEXICONS)))
    @example('He sat) down. Then (she "left… he]) stayed?! «Mr. A. no» Done…', "en")
    def test_matches_reference_on_drawn_text(self, text, tag):
        assert_matches_reference(text, tag)

    def test_fixtures_match_reference(self):
        for text, _ in CASES:
            for tag in REF_LEXICONS:
                assert_matches_reference(text, tag)

    @pytest.mark.parametrize("text", [
        "",
        "no terminator at all",
        ". A text that starts with a mark.",
        "?! Back to back?! Marks...",
        "He waited…. Then he left.",
        "It ended. But this tail runs on",
    ], ids=["empty", "no_terminator", "leading_mark", "question_bang",
            "ellipsis_stop", "unterminated_tail"])
    @pytest.mark.parametrize("tag", sorted(REF_LEXICONS))
    def test_edge_cases_match_reference(self, text, tag):
        assert_matches_reference(text, tag)


class TestSentenceLengthSeries:
    def _sents(self, text):
        return tf.segment_sentences(tf.tokenize(text))[0]

    def test_word_counts(self):
        slv = tf.sentence_length_series(self._sents("One two three. Four five."))
        assert slv.values.tolist() == [3, 2]
        assert slv.provenance["unit"] == "words"

    def test_character_counts(self):
        slv = tf.sentence_length_series(
            self._sents("One two three. Four five."), unit="characters")
        assert slv.values.tolist() == [len("Onetwothree"), len("Fourfive")]

    def test_fixture_hand_count(self):
        text = "A tiny tale begins here. It has a second sentence. Short end."
        slv = tf.sentence_length_series(self._sents(text))
        assert slv.values.tolist() == [5, 5, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tf.sentence_length_series([])


class TestSliceSeries:
    def _series(self, values):
        return tf.Series(values=np.array(values))

    def test_basic_slice(self):
        part = tf.slice_series(self._series([5, 1, 9, 2]), 1, 2)
        assert part.values.tolist() == [5, 1]
        assert part.provenance["slice"] == [1, 2]

    def test_full_range_identity(self):
        s = self._series([5, 1, 9, 2])
        assert tf.slice_series(s, 1, 4).values.tolist() == [5, 1, 9, 2]

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=60),
           st.data())
    def test_halves_reconcatenate(self, values, data):
        s = self._series(values)
        k = data.draw(st.integers(1, len(values) - 1))
        left = tf.slice_series(s, 1, k).values
        right = tf.slice_series(s, k + 1, len(values)).values
        assert np.concatenate([left, right]).tolist() == values

    def test_bounds_checked(self):
        s = self._series([1, 2, 3])
        for lo, hi in [(0, 2), (2, 4), (3, 2)]:
            with pytest.raises(ValueError):
                tf.slice_series(s, lo, hi)


def oracle_keys(text, include_terminators=False):
    """The reference's word surfaces, case-folded, in text order; with
    ``include_terminators``, each sentence-ending mark as the pooled key."""
    surfaces, kinds = oracle_tokenize(text)
    return [w.lower() if k == WORD else TERMINATOR_SURFACE for w, k in zip(surfaces, kinds)
            if k == WORD or (include_terminators and k == TERMINATOR)]


class TestWordRecurrence:
    @settings(max_examples=200)
    @given(st.data())
    def test_gaps_match_oracle_on_drawn_text(self, data):
        # the target, in either case, is one more piece of the drawn text
        target = data.draw(st.sampled_from(["a", "é", "ж", "7", "ﬁ", "𝐀", "a-a", "q’e"]))
        text = data.draw(drawn_texts(TOKEN_PIECES + [target, target.upper()]))
        positions = [i for i, w in enumerate(oracle_keys(text)) if w == target.lower()]
        # the same text with every space a newline has the same words
        docs = [tf.tokenize(text), tf.tokenize(text.replace(" ", "\n"))]

        def test():
            for doc in docs:
                if len(positions) < 2:
                    with pytest.raises(ValueError, match=f"occurs {len(positions)} time"):
                        tf.word_recurrence_series(doc, target)
                else:
                    got = tf.word_recurrence_series(doc, target).values
                    assert got.tolist() == np.diff(positions).tolist()

        each_block_size(test)

    def test_simple_gap(self):
        doc = tf.tokenize("the cat the")
        assert tf.word_recurrence_series(doc, "the").values.tolist() == [2]

    def test_adjacent_repeats(self):
        doc = tf.tokenize("a a a a")
        assert tf.word_recurrence_series(doc, "a").values.tolist() == [1, 1, 1]

    def test_terminators_do_not_count(self):
        doc = tf.tokenize("the end. the start")
        assert tf.word_recurrence_series(doc, "the").values.tolist() == [2]

    def test_case_folding(self):
        doc = tf.tokenize("The cat saw the dog")
        assert tf.word_recurrence_series(doc, "the").values.tolist() == [3]

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(17)
        vocab = ["the", "cat", "dog", "ran", "sat"]
        words = [vocab[i] for i in rng.integers(0, len(vocab), size=500)]
        doc = tf.tokenize(" ".join(words))
        got = tf.word_recurrence_series(doc, "the").values
        positions = [i for i, w in enumerate(words) if w == "the"]
        expected = np.diff(positions)
        np.testing.assert_array_equal(got, expected)

    def test_gap_sum_is_index_distance(self):
        doc = tf.tokenize("x the y z the w the")
        rec = tf.word_recurrence_series(doc, "the")
        assert rec.values.sum() == 6 - 1

    def test_insufficient_occurrences_named(self):
        doc = tf.tokenize("one two three")
        with pytest.raises(ValueError, match="1 time"):
            tf.word_recurrence_series(doc, "one")

    def test_a_decomposed_target_matches_its_composed_text(self):
        # the text is read in NFC, and so is the target
        doc = tf.tokenize("Un café. Le café est bon. Un autre café.")
        for target in ("caf\u00e9", "cafe\u0301", "CAFE\u0301"):
            assert tf.word_recurrence_series(doc, target).values.tolist() == [2, 5]

    @pytest.mark.parametrize("target", ["", "the cat", "?", "a/b", "…", "the."])
    def test_a_target_that_is_not_one_word_raises_by_name(self, target):
        with pytest.raises(ValueError, match=re.escape(f"target {target!r} is not one word")):
            tf.word_recurrence_series(tf.tokenize("the cat. the cat."), target)

    def test_pooled_terminators_equal_slv_shifted(self):
        text = "One two three. Four five. Six seven eight nine. Ten."
        doc = tf.tokenize(text)
        slv = tf.sentence_length_series(tf.segment_sentences(doc)[0])
        rec = tf.word_recurrence_series(doc, ".")
        np.testing.assert_array_equal(rec.values, slv.values[1:])


class TestRankFrequency:
    @settings(max_examples=200)
    @given(drawn_texts(), st.booleans())
    def test_table_matches_oracle_on_drawn_text(self, text, include_terminators):
        # Counter keeps first-occurrence order, and the sort is stable
        expected = sorted(Counter(oracle_keys(text, include_terminators)).items(),
                          key=lambda kv: -kv[1])
        # the same text with every space a newline has the same words
        docs = [tf.tokenize(text), tf.tokenize(text.replace(" ", "\n"))]

        def test():
            for doc in docs:
                if not expected:
                    with pytest.raises(ValueError, match="no words to rank"):
                        tf.rank_frequency(doc, include_terminators)
                else:
                    table = tf.rank_frequency(doc, include_terminators)
                    assert list(zip(table.surfaces, table.counts.tolist())) == expected

        each_block_size(test)

    def test_simple_counts(self):
        doc = tf.tokenize("the cat the")
        table = tf.rank_frequency(doc)
        assert table.surfaces == ("the", "cat")
        assert table.counts.dtype.kind == "i" and table.counts.tolist() == [2, 1]

    def test_pooled_terminators(self):
        doc = tf.tokenize("a. b!")
        table = tf.rank_frequency(doc, include_terminators=True)
        assert (table.surfaces[0], table.counts[0]) == ("⟨.⟩", 2)

    def test_counts_sum_to_token_count(self):
        doc = tf.tokenize("Red fish, blue fish. Old fish? New fish!")
        table = tf.rank_frequency(doc, include_terminators=True)
        n_counted = int(np.isin(doc.kinds, (WORD, TERMINATOR)).sum())
        assert table.counts.sum() == n_counted

    def test_ties_by_first_occurrence(self):
        doc = tf.tokenize("zeta alpha zeta alpha")
        table = tf.rank_frequency(doc)
        assert table.surfaces == ("zeta", "alpha")

    def test_counts_non_increasing_ranks_contiguous(self):
        doc = tf.tokenize("a a a b b c d d d d")
        table = tf.rank_frequency(doc)
        counts = table.counts.tolist()
        assert counts == sorted(counts, reverse=True)
        # rank = position + 1: one count per surface, every surface distinct
        assert len(counts) == len(table.surfaces) == len(set(table.surfaces))

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            tf.rank_frequency(tf.tokenize(""))


class TestLexicon:
    def test_file_loading_with_comments(self, tmp_path):
        path = tmp_path / "abbr.txt"
        path.write_text("# comment line\nMr  # inline\n\nFoo.\n", encoding="utf-8")
        lex = AbbreviationLexicon.from_file(path)
        assert "mr" in lex.entries and "foo" in lex.entries
        assert len(lex.entries) == 2

    def test_a_leading_bom_is_no_part_of_the_first_entry(self, tmp_path):
        path = tmp_path / "abbr.txt"
        path.write_bytes("\ufeffmr.\ndr.\n".encode("utf-8"))
        lex = AbbreviationLexicon.from_file(path)
        assert lex.entries == frozenset({"mr", "dr"})
        spans, _ = tf.segment_sentences(tf.tokenize("Mr. Smith came. Dr. Jones left."), lex)
        assert spans.words.tolist() == [3, 3]

    def test_case_insensitive_match(self):
        # entries are case-folded, so a word matches as word.lower()
        lex = AbbreviationLexicon(["Mr.", "ETC"])
        assert lex.entries == frozenset({"mr", "etc"})

    def test_bundled_languages_load(self):
        for tag in ["en", "de", "fr", "es", "it", "pl", "ru"]:
            lex = AbbreviationLexicon.for_language(tag)
            assert len(lex.entries) > 0
            # the bundled files follow the format of a user's --lexicon file
            path = Path(tf.__file__).parent / "lexicons" / f"{tag}.txt"
            assert lex.entries == AbbreviationLexicon.from_file(path).entries
        assert AbbreviationLexicon.for_language("zz").entries == frozenset()


class TestNovelScale:
    def test_the_novel_is_pinned(self):
        # one generator builds it for the tests, the benchmark and
        # tools/diff_outputs.py; any change to it fails here by name
        text, lengths = build_novel()
        data = text.encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == (
            "b778db66a8f3c087a368609b4c779ccf2741dd04822e8f66d6ac928a0640c691")
        assert (len(data), len(lengths), lengths.sum()) == (756_362, 16_384, 150_551)

    def test_segmentation_recovers_generated_lengths(self, novel):
        text, lengths = novel
        doc = tf.tokenize(text, title="novel")
        sents, report = tf.segment_sentences(doc)
        slv = tf.sentence_length_series(sents)
        assert report.n_sentences == len(lengths)
        np.testing.assert_array_equal(slv.values, lengths)

    @pytest.mark.parametrize("tag", sorted(REF_LEXICONS))
    def test_segmentation_matches_reference(self, novel, tag):
        assert_matches_reference(novel[0], tag)

    def test_tokens_match_oracle(self, novel):
        assert_matches_oracle(novel[0])

    @pytest.mark.parametrize("word_pass", [
        lambda doc: tf.rank_frequency(doc, include_terminators=True),
        lambda doc: tf.word_recurrence_series(doc, "the"),
        lambda doc: tf.word_recurrence_series(doc, "."),
    ], ids=["zipf", "recurrence", "recurrence_stop"])
    def test_word_pass_holds_one_run_at_a_time(self, novel, word_pass):
        # the word lists are built one run of about _BLOCK characters at a
        # time, so the peak above the Document does not grow with the text:
        # one whole-text copy in code points, a mask or the lowered text
        # would each take 3 MB of the 3 MB novel repeated 4 times. The
        # full stops are counted from the non-word tokens alone, with no
        # whole-text running total (2.7 MB, and 5.4 MB in the cast to it)
        doc = tf.tokenize(novel[0] * 4)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            word_pass(doc)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 6e6, f"peak {peak / 1e6:.1f} MB above the Document"

    def test_segmentation_holds_few_whole_text_columns(self, novel):
        # a whole-text int32 column takes 2.7 MB of the novel repeated 4
        # times, a bool one 0.7 MB. The whole-text columns are the word
        # flags, the word lengths and the word and terminator index
        # `stops`, built with no int64 copy (5.4 MB) and dropped once the
        # capital rule has read it; the word and character counts are
        # taken per span with no running total: a peak of 10.0 MB above
        # the Document, 15.3 MB with the copy
        doc = tf.tokenize(novel[0] * 4)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tf.segment_sentences(doc)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"peak {peak / 1e6:.1f} MB above the Document"

    def test_tokenize_holds_one_copy_of_the_text(self, novel):
        # the bytes are dropped once decoded, and each column's blocks
        # once it is joined: on the novel repeated 4 times the peak is the
        # 9.1 MB Document and one int32 column's blocks (2.7 MB), where
        # holding the bytes and every block to the end peaked at 18.1 MB.
        # One word a line is cut into the same blocks; scanned whole, as
        # when blocks were cut only at " ", it peaked at 30.8 MB
        for space in (" ", "\n"):
            text = novel[0].replace(" ", space) * 4
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                tf.tokenize(text.encode())  # a temporary, as cli.load_document passes it
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert peak < 13.5e6, f"{space!r}-separated: peak {peak / 1e6:.1f} MB"

    def test_zipf_midrank_slope(self, novel):
        text, _ = novel
        table = tf.rank_frequency(tf.tokenize(text), include_terminators=True)
        counts = table.counts.astype(float)
        ranks = np.arange(1.0, len(counts) + 1)
        sel = (ranks >= 10) & (ranks <= 1000)
        slope, _ = np.polyfit(np.log10(ranks[sel]), np.log10(counts[sel]), 1)
        assert slope == pytest.approx(-1.0, abs=0.15)
