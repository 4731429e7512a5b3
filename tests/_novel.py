"""The synthetic novel of the tests: sentence lengths from a binomial
cascade (long-range correlated and multifractal by construction), Zipf(1)
words, and a few "Mr."-style honorifics. Its one generator is
``perfbench/inputs.py``, which imports no textfract, so no change to the
library can move it. ``build_novel()`` returns the text and the exact
per-sentence word counts the segmenter must recover.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from inputs import build_novel, sentence_lengths  # noqa: E402,F401
