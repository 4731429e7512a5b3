"""End-to-end text analysis: one novel in, its scaling fingerprint out.

Segments a plain-text file into sentences, builds the sentence-length
series, and prints the quantities that characterize its long-range
structure: the spectral slope beta, the Hurst exponent h(2), the
singularity-spectrum width delta_alpha with a shuffled-surrogate
baseline, the Zipf mid-rank slope, and (when the text is long enough)
the stretched-exponential tail of the length distribution.

    python3 demos/text_pipeline.py path/to/novel.txt
"""

import argparse

import numpy as np

import textfract as tf
import textfract.mfdfa as mfdfa
from textfract import distfit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("path", help="UTF-8 plain text file")
    ap.add_argument("--language", default="en")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    with open(args.path, "rb") as fh:
        doc = tf.tokenize(fh.read(), title=args.path)
    lexicon = tf.AbbreviationLexicon.for_language(args.language)
    spans, report = tf.segment_sentences(doc, lexicon)
    slv = tf.sentence_length_series(spans)
    print(f"{report.n_sentences} sentences, mean length "
          f"{slv.values.mean():.1f} words")
    if len(slv) < 5000:
        print("note: short text, scaling estimates will be noisy")

    values = slv.values
    fit = tf.fit_beta(tf.power_spectrum(values))
    _, gh, spec = mfdfa.mfdfa(values)
    print(f"beta^s       = {fit.beta:+.3f} +- {fit.sigma_beta:.3f}")
    print(f"h(2)         = {mfdfa.hurst_exponent(gh):.3f}   "
          f"(2H - 1 = {mfdfa.beta_from_hurst(mfdfa.hurst_exponent(gh)):+.3f})")
    print(f"delta_alpha  = {spec.delta_alpha:.3f}")

    _, _, spec_sh = mfdfa.mfdfa(tf.shuffle_surrogate(values, args.seed))
    print(f"  shuffled baseline: {spec_sh.delta_alpha:.3f}")

    table = tf.rank_frequency(doc, include_terminators=True)
    counts = table.counts[9:1000]  # ranks 10 to 1000
    if len(counts) >= 10:
        ranks = np.arange(10, 10 + len(counts))
        slope, _ = np.polyfit(np.log10(ranks), np.log10(counts), 1)
        print(f"Zipf slope (ranks 10-1000) = {slope:.3f}")

    try:
        tail = distfit.fit_stretched_exponential(distfit.ccdf(values))
        print(f"tail: F(l) ~ exp(-{tail.mu:.3g} l^{tail.b:.2f}) "
              f"over l > {tail.fit_range[0]:g}")
    except ValueError as exc:
        print(f"tail fit skipped ({exc})")


if __name__ == "__main__":
    main()
