"""Seeded benchmark inputs, built without importing textfract.

The inputs must not change when the program under test changes, so the
generators live here rather than in ``src/``:

* ``build_novel(seed)`` is ``tests/_novel.py`` with the seed as an
  argument (and the binomial cascade inlined). At seed 20260825 it
  returns the same bytes as ``tests/_novel.build_novel()``.
* ``fgn(H, n, seed)`` is fractional Gaussian noise by spectral
  synthesis, the same construction as ``textfract.series.generate_fgn``.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

NOVEL_SEED = 20260825
N_LEVELS = 14  # 2**14 = 16384 sentences
VOCAB_SIZE = 6000

_COMMON = [
    "the", "and", "of", "to", "in", "he", "she", "it", "was", "that",
    "his", "her", "with", "as", "at", "by", "on", "for", "had", "not",
]
_SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
    "na", "pe", "ri", "so", "tu", "va", "we", "xi", "yo", "zu",
]
_HONORIFICS = ["Mr.", "Mrs.", "Dr.", "Prof."]
_NAMES = ["Banook", "Celder", "Dorvin", "Ferla", "Gomet", "Harrin"]


def derive_seed(seed: int, index: int) -> int:
    """Independent 32-bit seed for input ``index`` of a workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _pseudo_word(i: int) -> str:
    parts = []
    i += 1
    while i:
        parts.append(_SYLLABLES[i % len(_SYLLABLES)])
        i //= len(_SYLLABLES)
    return "".join(parts)


@lru_cache(maxsize=1)
def vocabulary() -> tuple:
    vocab = list(_COMMON)
    seen = set(vocab)
    i = 0
    while len(vocab) < VOCAB_SIZE:
        w = _pseudo_word(i)
        if w not in seen:
            vocab.append(w)
            seen.add(w)
        i += 1
    return tuple(vocab)


def binomial_cascade(p: float, levels: int) -> np.ndarray:
    """p**n (1-p)**(levels-n), n = popcount(k), k = 0 .. 2**levels - 1."""
    k = np.arange(2**levels, dtype=np.uint32)
    ones = np.zeros_like(k)
    for bit in range(levels):
        ones += (k >> bit) & 1
    return p ** ones.astype(float) * (1.0 - p) ** (levels - ones).astype(float)


def sentence_lengths(seed: int = NOVEL_SEED, levels: int = N_LEVELS) -> np.ndarray:
    """Cascade-driven lengths: multifractal, mean around 9 words."""
    rng = np.random.default_rng(seed)
    c = binomial_cascade(0.38, levels)
    z = c / c.mean()
    u = z**0.9
    mult = np.exp(0.2 * rng.standard_normal(len(u)))
    return np.maximum(1, np.round(9.0 * u / u.mean() * mult)).astype(int)


def build_novel(seed: int = NOVEL_SEED, levels: int = N_LEVELS):
    """Returns (text, lengths), lengths being the exact word counts the
    segmenter must recover."""
    lengths = sentence_lengths(seed, levels)
    vocab = vocabulary()
    ranks = np.arange(1, VOCAB_SIZE + 1)
    probs = (1.0 / ranks) / (1.0 / ranks).sum()
    rng = np.random.default_rng(seed + 1)
    draws = rng.choice(VOCAB_SIZE, size=int(lengths.sum()), p=probs)
    enders = rng.choice([".", ".", ".", ".", ".", ".", "?", "!"], size=len(lengths))
    honorific = rng.random(len(lengths)) < 0.02

    out = []
    pos = 0
    for j, l in enumerate(lengths):
        words = [vocab[k] for k in draws[pos : pos + l]]
        pos += l
        if honorific[j] and l >= 3:
            words[0] = _HONORIFICS[j % len(_HONORIFICS)]
            words[1] = _NAMES[j % len(_NAMES)]
        else:
            words[0] = words[0].capitalize()
        out.append(" ".join(words) + enders[j])
    return "\n".join(out) + "\n", lengths


def novel_token_count(text: str, lengths) -> int:
    """Tokens textfract's tokenizer finds: every word, one mark per
    sentence, and the period of each honorific."""
    return int(lengths.sum()) + len(lengths) + sum(text.count(h) for h in _HONORIFICS)


def fgn(H: float, n: int, seed: int) -> np.ndarray:
    """Fractional Gaussian noise: amplitudes f**-(2H-1)/2, uniform phases,
    standardized to zero mean and unit variance."""
    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n)
    amplitudes = np.zeros(len(freqs))
    amplitudes[1:] = freqs[1:] ** (-(2.0 * H - 1.0) / 2.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(freqs))
    phases[0] = 0.0
    if n % 2 == 0:
        phases[-1] = 0.0
    x = np.fft.irfft(amplitudes * np.exp(1j * phases), n=n)
    return (x - x.mean()) / x.std()


def series_csv(values) -> str:
    """``index,value`` CSV as ``textfract --series-csv`` reads it.

    ``repr(float(v))``, not ``repr(v)``: numpy 2 reprs a float64 as
    ``np.float64(...)``, which the reader rejects.
    """
    lines = ["index,value"]
    lines.extend(f"{j},{float(v)!r}" for j, v in enumerate(values, start=1))
    return "\n".join(lines) + "\n"


def fingerprint(data: bytes, **counts) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), **counts}
