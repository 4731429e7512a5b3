"""Hand-labeled segmentation snippets.

Each case is (text, expected word counts per sentence). Counts were
done by hand against the segmentation rules: words are letter/digit
runs (hyphenated words and numerals count as one word), a terminator
ends a sentence unless it follows a known abbreviation or a
single-capital initial or sits inside an open bracket/quote pair with
no capitalized continuation.
"""

CASES = [
    # plain declaratives
    ("He left.", [2]),
    ("He left. She stayed.", [2, 2]),
    ("One. Two three. Four five six.", [1, 2, 3]),
    ("It rained all day. Nobody came.", [4, 2]),
    # question and exclamation marks end sentences
    ("Did he leave? She stayed.", [3, 2]),
    ("What a day! It ended well.", [3, 3]),
    ("Who? Me? Never!", [1, 1, 1]),
    # abbreviations from the lexicon do not split
    ("Mr. Smith arrived. He left.", [3, 2]),
    ("Dr. Jones saw Mrs. Brown. They spoke.", [5, 2]),
    ("He lives on Elm St. near the park. It is quiet.", [8, 3]),
    ("Prof. Lang teaches here. Students like her.", [4, 3]),
    ("See Fig. 3 for details. The trend is clear.", [5, 4]),
    ("They met in Oct. last year. Much has changed.", [6, 3]),
    ("The firm was Smith Co. until 1901. Then it closed.", [7, 3]),
    # initials do not split
    ("A. B. Smith wrote. Done.", [4, 1]),
    ("J. K. Rowling is famous. So is she.", [5, 3]),
    ("The painter H. Matisse moved south. The light was better.", [6, 4]),
    # parenthesized marks do not split without a capitalized continuation
    ("He asked (really?) and waited. She nodded.", [5, 2]),
    ("The plan (what a plan!) failed badly. Nobody minded.", [7, 2]),
    ("She whispered \"is it time?\" and sat down. He rose.", [8, 2]),
    # but a capitalized continuation inside brackets starts a new
    # sentence; the second bracketed stop (lowercase follow-on) does not
    ("He said (I am sure. He repeated it.) and left.", [5, 5]),
    # a closer with no bracket open is ignored, and any closer closes any
    # opener; a mark inside guillemets or straight quotes needs a capital
    # after it to end a sentence, and an unclosed quote holds the tail
    ("He sat) down. Then (she left. he) stayed. Done.", [3, 5, 1]),
    ("It was [so (very. odd]) indeed. Yes.", [6, 1]),
    ("A «quiet. calm» night fell. Morning came.", [5, 2]),
    ("She said \"wait. no. Stop.\" and went. He stayed.", [4, 3, 2]),
    ("He hummed \"la la. la. Then silence. It was over.", [5, 2]),
    # ellipsis: ends a sentence only before a capitalized word
    ("He waited... Nothing happened.", [2, 2]),
    ("He waited... and waited. She left.", [4, 2]),
    # hyphenated words and numerals count as one word
    ("The well-known author signed 300 copies. All sold.", [6, 2]),
    ("Twenty-one birds flew by. He counted them.", [4, 3]),
    # apostrophes stay inside the word
    ("It wasn't John's fault. He apologised anyway.", [4, 3]),
    ("O'Brien didn't answer. The door stayed shut.", [3, 4]),
    # punctuation that never terminates
    ("He paused; then he spoke: nothing. She laughed.", [6, 2]),
    ("Wait, think, act. Repeat.", [3, 1]),
    # unterminated tail is dropped by default
    ("He left. She stayed and then", [2]),
    ("Complete sentence here. trailing fragment", [3]),
    # stray terminators with no words are skipped
    ("He left. . She stayed.", [2, 2]),
    # mixed features
    ("Mr. and Mrs. Veld sailed on Jan. 2. The sea was calm.", [8, 4]),
    ("Was it Dr. Ford? No! A. J. Prine said so.", [4, 1, 5]),
    ("The strong-willed Mrs. Park won 2-1. A fine result.", [6, 3]),
]
