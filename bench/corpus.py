"""Seeded synthetic student-feedback corpora (numpy + stdlib only).

A corpus is a CSV in the layout `edusent prepare` ingests: a `comments`
column and a `student_star` column. Comments are made of letters-only
synthetic words drawn from a Zipf-Mandelbrot distribution, plus planted cue words
that carry the label:

* a label-consistent cue ("<positive cue>" in a positive row),
* a negated opposite cue ("not <negative cue>" in a positive row),
* a contrary cue (noise: "<negative cue>" in a positive row).

Every word is built from consonant-vowel syllables and ends in a vowel, so
none of the lemmatizer's suffix rules (all of which end in a consonant)
rewrite it. The cue words are fixed; the filler vocabulary, the rows and
their order follow the seed. Every random draw for a corpus is made in one
vectorised call, so a 20k-row corpus takes well under a second.

The counts the benchmark checks against (rows, drops by reason, neutral
rows) are exact properties of the spec, not of the seed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONSONANTS = np.array(list("bdfgklmnprtvz"))
VOWELS = np.array(list("aeiou"))

POSITIVE_CUES = ("belamo", "dorifa", "galuvi", "kimero", "lopani", "mirato",
                 "nuvela", "pelino", "ravemi", "tolida", "vinaro", "zumeli")
NEGATIVE_CUES = ("bakuzo", "fogeru", "grudavo", "kazopu", "murgoda", "podraku",
                 "rukazo", "tgrobu", "vodrugo", "zagruko", "dromuka", "frugazo")
NEGATION = "not"
#: Zipf-Mandelbrot offset: p(rank) ~ (rank + 50)^-s. Without it the top few
#: filler words carry a tenth of all tokens each, and whether chi-squared
#: selection happens to keep them moved the in-vocabulary token count (and
#: so the RNN's work) by half from one seed to the next.
ZIPF_OFFSET = 50.0
ZIPF_EXPONENT = 1.05
NEGATION_SHARE = 0.15  # rows with "not" + an opposite cue
NOISE_SHARE = 0.1  # rows with a contrary cue

POSITIVE_STARS = ("3.5", "4.0", "4.5", "5.0")
NEGATIVE_STARS = ("1.0", "1.5", "2.0", "2.4")
NEUTRAL_STARS = ("2.5", "3.0", "3.4")
#: malformed-row reason -> rating cell written for it (missing_comment rows
#: carry a valid rating and an empty comment)
MALFORMED_STARS = {
    "missing_comment": ("4.0",),
    "missing_rating": ("",),
    "unparsable_rating": ("four", "x3", "3..5"),
    "out_of_range_rating": ("0.5", "5.5", "7.0"),
}


@dataclass(frozen=True)
class CorpusSpec:
    labelled_rows: int  # rows whose rating maps to Positive or Negative
    positive_share: float
    neutral_rows: int  # ratings in the 2.5-3.4 band, excluded by the program
    malformed: dict  # drop reason -> row count
    filler_vocab: int
    median_tokens: float
    length_sigma: float
    max_tokens: int
    cue_share: float  # rows with label-consistent cues
    extra_cue_every: int  # such rows get one more cue per this many tokens; 0: none

    @property
    def total_rows(self) -> int:
        return self.labelled_rows + self.neutral_rows + sum(self.malformed.values())

    def expected_drop_report(self) -> dict:
        """The drop report `prepare` must write for this corpus."""
        dropped = {reason: self.malformed.get(reason, 0) for reason in MALFORMED_STARS}
        return {
            "rows": self.total_rows,
            "retained": self.total_rows - sum(dropped.values()),
            "dropped": dropped,
            "neutral_excluded": self.neutral_rows,
        }


def _words(rng: np.random.Generator, n: int) -> list:
    """n distinct consonant-vowel words of 2 to 4 syllables."""
    out: dict = {}
    reserved = set(POSITIVE_CUES) | set(NEGATIVE_CUES) | {NEGATION}
    while len(out) < n:
        m = int(1.3 * (n - len(out))) + 16
        syllables = rng.choice([2, 3, 4], size=m, p=[0.2, 0.5, 0.3])
        cons = CONSONANTS[rng.integers(0, len(CONSONANTS), size=(m, 4))]
        vows = VOWELS[rng.integers(0, len(VOWELS), size=(m, 4))]
        pairs = np.char.add(cons, vows)
        for row, k in zip(pairs, syllables):
            word = "".join(row[:k])
            if word not in reserved:
                out.setdefault(word, None)
    return list(out)[:n]


def generate(spec: CorpusSpec, seed: int) -> str:
    """The CSV text of the corpus for (spec, seed)."""
    rng = np.random.default_rng([seed, 7211])
    vocab = np.array(_words(rng, spec.filler_vocab), dtype=object)
    ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
    cdf = np.cumsum((ranks + ZIPF_OFFSET) ** -ZIPF_EXPONENT)
    cdf /= cdf[-1]

    n_lab, n_neu = spec.labelled_rows, spec.neutral_rows
    n_bad = sum(spec.malformed.values())
    n = n_lab + n_neu + n_bad
    n_pos = int(round(spec.positive_share * n_lab))
    # kind: 1 positive, 0 negative, 2 neutral, 3.. malformed reasons
    reasons = sorted(spec.malformed)
    kind = np.concatenate([
        np.ones(n_pos, dtype=np.int64), np.zeros(n_lab - n_pos, dtype=np.int64),
        np.full(n_neu, 2, dtype=np.int64),
        np.concatenate([np.full(spec.malformed[r], 3 + j, dtype=np.int64)
                        for j, r in enumerate(reasons)] or [np.zeros(0, np.int64)]),
    ])
    kind = kind[rng.permutation(n)]

    lengths = np.exp(rng.normal(np.log(spec.median_tokens), spec.length_sigma, size=n))
    lengths = np.clip(np.rint(lengths), 3, spec.max_tokens).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    filler = vocab[np.searchsorted(cdf, rng.random(int(offsets[-1])), side="right")]

    # cue events, one column each: consistent, negated-opposite, contrary
    events = rng.random((n, 3)) < [spec.cue_share, NEGATION_SHARE, NOISE_SHARE]
    cue_pick = rng.integers(0, len(POSITIVE_CUES), size=(n, 3))
    positions = rng.random((n, 3))
    star_pick = rng.integers(0, 1 << 30, size=n)

    lines = ["comments,student_star"]
    for r in range(n):
        k = int(kind[r])
        tokens = list(filler[offsets[r]:offsets[r + 1]])
        # neutral and malformed rows get cues of a random side
        positive = k == 1 or (k >= 2 and cue_pick[r, 0] % 2 == 0)
        same, other = ((POSITIVE_CUES, NEGATIVE_CUES) if positive
                       else (NEGATIVE_CUES, POSITIVE_CUES))
        inserts = []
        if events[r, 0]:
            extra = len(tokens) // spec.extra_cue_every if spec.extra_cue_every else 0
            for j in range(1 + extra):
                cue = same[(cue_pick[r, 0] + j) % len(same)]
                inserts.append(((positions[r, 0] + j * 0.618) % 1.0, [cue]))
        if events[r, 1]:
            inserts.append((positions[r, 1], [NEGATION, other[cue_pick[r, 1]]]))
        if events[r, 2]:
            inserts.append((positions[r, 2], [other[cue_pick[r, 2]]]))
        for pos, words in inserts:
            at = int(pos * (len(tokens) + 1))
            tokens[at:at] = words
        comment = " ".join(tokens)
        if k == 1:
            stars = POSITIVE_STARS
        elif k == 0:
            stars = NEGATIVE_STARS
        elif k == 2:
            stars = NEUTRAL_STARS
        else:
            reason = reasons[k - 3]
            stars = MALFORMED_STARS[reason]
            if reason == "missing_comment":
                comment = ""
        lines.append(f"{comment},{stars[star_pick[r] % len(stars)]}")
    return "\n".join(lines) + "\n"


def sensitivity_sentences() -> list:
    """A fixed list of 12 probe sentences built from the cue words."""
    out = []
    for i in range(3):
        pos, neg = POSITIVE_CUES[i], NEGATIVE_CUES[i]
        out += [
            f"The lecture was {pos}.",
            f"The lecture was not {pos}.",
            f"The seminar felt {neg} and long.",
            f"The seminar was not {neg} but {POSITIVE_CUES[i + 6]}.",
        ]
    return out


def cached_corpus(spec: CorpusSpec, seed: int, cache_dir: Path, name: str) -> Path:
    """Path of the corpus CSV for (spec, seed), generating it on first use."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    tag = hashlib.sha256(repr(spec).encode()).hexdigest()[:12]
    path = cache_dir / f"{name}-seed{seed}-{tag}.csv"
    if not path.exists():
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(generate(spec, seed), encoding="utf-8")
        os.replace(tmp, path)
    return path
