import re
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import textfract as tf
from textfract import corpus
from textfract.corpus import OTHER, TERMINATOR, TERMINATOR_SURFACE, WORD, AbbreviationLexicon
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


def words_of(doc):
    return [s for s, k in zip(doc.tokens, doc.kinds) if k == WORD]


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

    def test_text_without_a_space_is_one_block(self, monkeypatch):
        # newlines are spaces to the scan, but blocks are cut only at " "
        monkeypatch.setattr(corpus, "_BLOCK", 2)
        text = "He\nleft.\nShe\nstayed,\nwell-known…\n"
        assert list(corpus._cuts(text)) == [(0, len(text))]
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


def drawn_texts(pieces=TOKEN_PIECES):
    """Texts of 20 to 60 pieces, each followed by a space or not."""
    return st.lists(st.tuples(st.sampled_from(pieces), st.sampled_from(["", " "])),
                    min_size=20, max_size=60).map(lambda p: "".join(map("".join, p)))


class TestWordRecurrence:
    @settings(max_examples=200)
    @given(st.data())
    def test_gaps_match_oracle_on_drawn_text(self, data):
        # the target, in either case, is one more piece of the drawn text
        target = data.draw(st.sampled_from(["a", "é", "ж", "7", "ﬁ", "𝐀", "a-a", "q’e"]))
        text = data.draw(drawn_texts(TOKEN_PIECES + [target, target.upper()]))
        positions = [i for i, w in enumerate(oracle_keys(text)) if w == target.lower()]
        doc = tf.tokenize(text)

        def test():
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
        doc = tf.tokenize(text)

        def test():
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
        assert len(lex) == 2

    def test_case_insensitive_match(self):
        lex = AbbreviationLexicon(["Mr."])
        assert "MR" in lex and "mr" in lex

    def test_bundled_languages_load(self):
        for tag in ["en", "de", "fr", "es", "it", "pl", "ru"]:
            lex = AbbreviationLexicon.for_language(tag)
            assert len(lex) > 0
            # the bundled files follow the format of a user's --lexicon file
            path = Path(tf.__file__).parent / "lexicons" / f"{tag}.txt"
            assert lex.entries == AbbreviationLexicon.from_file(path).entries
        assert AbbreviationLexicon.for_language("zz").entries == frozenset()


class TestNovelScale:
    def test_segmentation_recovers_generated_lengths(self, novel):
        text, lengths = novel
        if lengths is None:
            pytest.skip("external novel: no generated-length oracle")
        doc = tf.tokenize(text, title="novel")
        sents, report = tf.segment_sentences(doc)
        slv = tf.sentence_length_series(sents)
        assert report.n_sentences == len(lengths)
        np.testing.assert_array_equal(slv.values, lengths)

    def test_tokens_match_oracle(self, novel):
        assert_matches_oracle(novel[0])

    def test_zipf_midrank_slope(self, novel):
        text, _ = novel
        table = tf.rank_frequency(tf.tokenize(text), include_terminators=True)
        counts = table.counts.astype(float)
        ranks = np.arange(1.0, len(counts) + 1)
        sel = (ranks >= 10) & (ranks <= 1000)
        slope, _ = np.polyfit(np.log10(ranks[sel]), np.log10(counts[sel]), 1)
        assert slope == pytest.approx(-1.0, abs=0.15)
