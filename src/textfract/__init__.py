"""textfract: long-range correlation and multifractal analysis of
sentence-length and word-recurrence series in narrative texts."""

from .corpus import (
    AbbreviationLexicon,
    Document,
    RankFrequencyTable,
    rank_frequency,
    segment_sentences,
    sentence_length_series,
    slice_series,
    tokenize,
    word_recurrence_series,
)
from .distfit import ccdf, fit_stretched_exponential
# the submodule is textfract.mfdfa; the pipeline wrapper of the same
# name stays there to avoid shadowing it here
from .mfdfa import (
    beta_from_hurst,
    fit_generalized_hurst,
    fluctuation_surface,
    hurst_exponent,
    singularity_spectrum,
)
from .series import (
    Series,
    generate_binomial_cascade,
    generate_fgn,
    generate_white_noise,
    phase_randomized_surrogate,
    profile,
    shuffle_surrogate,
)
from .spectral import average_spectrum, fit_beta, power_spectrum
from .wavelet import mother_wavelet, wavelet_map

__version__ = "0.1.0"
