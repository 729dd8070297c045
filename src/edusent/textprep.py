"""Text normalization: tokenizing, stopword removal, rule-based lemmatizing.

The lemmatizer is a small table-driven stemmer (ordered suffix rules with an
exception map) rather than a dictionary lemmatizer, so the package carries no
external lexical database. Negation contractions ("isn't", "don't", ...) are
deliberately kept out of the stopword list and folded to "not" by the
exception table, because negation placement carries sentiment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .errors import ValidationError, read_utf8

#: a token sequence is just an ordered list of lowercase strings
TokenSequence = list

#: a token: two or more of [a-z'], first and last a letter
_TOKEN = re.compile(r"[a-z][a-z']*[a-z]")
_TOKEN_SHAPE = re.compile(r"^[a-z][a-z']*$")
_VOWELS = set("aeiou")

#: replacement marker: drop the suffix, then add "e" when the stem ends in
#: consonant-vowel-consonant (final consonant not w/x/y) -- "grading" -> "grade"
CVC_E = "@e"


def _builtin(name: str) -> str:
    return resources.files("edusent.data").joinpath(name).read_text(encoding="utf-8")


@dataclass
class StopwordList:
    words: set
    source: str = "builtin"

    def __post_init__(self):
        if not self.words:
            raise ValidationError("stopword list is empty")
        bad = [w for w in self.words if w != w.lower()]
        if bad:
            raise ValidationError(f"stopword list must be lowercase, got {bad[:3]}")

    @classmethod
    def load(cls, path: Optional[Union[str, Path]] = None) -> "StopwordList":
        """Read one word per line (blank lines and # comments ignored)."""
        if path is None:
            text, source = _builtin("stopwords.txt"), "builtin"
        else:
            text, source = read_utf8(path), str(path)
        words = {
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        }
        return cls(words=words, source=source)


@dataclass
class LemmaRuleTable:
    """Ordered suffix rules plus an exception map checked before any rule.

    File format, one entry per line: "word<TAB>lemma" declares an exception,
    "suffix<TAB>replacement<TAB>min_stem" declares a rule (replacement "-"
    means drop the suffix, "@e" uses the consonant-vowel-consonant heuristic).
    Rules fire first-match in file order.
    """

    suffix_rules: list
    exceptions: dict
    #: token -> lemma, filled as `lemmatize` and `preprocess` meet each distinct token
    lemmas: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: last letter -> the rules whose suffix ends in it, in file order
    rules_by_last: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        for rule in self.suffix_rules:
            suffix, replacement, min_stem = rule
            if not suffix or min_stem < 0:
                raise ValidationError(f"malformed rule ({suffix!r}, {replacement!r}, {min_stem})")
            self.rules_by_last.setdefault(suffix[-1], []).append(rule)
        for word, lemma in self.exceptions.items():
            if not _TOKEN_SHAPE.match(word) or not _TOKEN_SHAPE.match(lemma):
                raise ValidationError(f"malformed exception {word!r} -> {lemma!r}")

    @classmethod
    def load(cls, path: Optional[Union[str, Path]] = None) -> "LemmaRuleTable":
        if path is None:
            text = _builtin("lemma_rules.tsv")
        else:
            text = read_utf8(path)
        rules = []
        exceptions = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 2:
                exceptions[parts[0].strip()] = parts[1].strip()
            elif len(parts) == 3:
                suffix, replacement, min_stem = (p.strip() for p in parts)
                try:
                    rules.append((suffix, replacement, int(min_stem)))
                except ValueError:
                    raise ValidationError(
                        f"lemma rule line {lineno}: min_stem must be an integer"
                    ) from None
            else:
                raise ValidationError(f"lemma rule line {lineno}: expected 2 or 3 fields")
        return cls(suffix_rules=rules, exceptions=exceptions)


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split on anything that is not a letter or apostrophe.

    Boundary apostrophes are stripped (interior ones kept, so "don't"
    survives) and tokens shorter than 2 characters are dropped: a token is
    a run of letters and apostrophes from its first letter to its last.
    """
    return _TOKEN.findall(text.lower())


def remove_stopwords(seq: TokenSequence, sw: StopwordList) -> TokenSequence:
    return [t for t in seq if t not in sw.words]


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    c2, v, c1 = stem[-3], stem[-2], stem[-1]
    return (c1 not in _VOWELS and c1 not in "wxy'"
            and v in _VOWELS
            and c2 not in _VOWELS)


#: most rewrites one token may take before the table is rejected
_MAX_REWRITES = 32


def _apply_rules(token: str, rules: LemmaRuleTable) -> str:
    """Rewrite `token` until no exception or rule changes it, so a lemma is
    its own lemma ("aaased" -> "aaas" -> "aaa"). A table whose rewrites
    cycle settles on the cycle's smallest string; one that keeps rewriting
    for _MAX_REWRITES steps is rejected."""
    chain = [token]
    for _ in range(_MAX_REWRITES):
        nxt = _rewrite(chain[-1], rules)
        if nxt == chain[-1]:
            return nxt
        if nxt in chain:
            return min(chain[chain.index(nxt) :])
        chain.append(nxt)
    raise ValidationError(f"lemma rules keep rewriting {token!r}: {' -> '.join(chain[:4])} ...")


def _rewrite(token: str, rules: LemmaRuleTable) -> str:
    """One rewrite: the exception for `token`, else the first matching rule.
    Only rules whose suffix ends in the token's last letter can match."""
    hit = rules.exceptions.get(token)
    if hit is not None:
        return hit
    for suffix, replacement, min_stem in rules.rules_by_last.get(token[-1:], ()):
        if not token.endswith(suffix):
            continue
        stem = token[: len(token) - len(suffix)]
        if len(stem) < min_stem:
            continue
        if replacement == CVC_E:
            return stem + ("e" if _ends_cvc(stem) else "")
        if replacement == "-":
            return stem
        return stem + replacement
    return token


def lemmatize(seq: TokenSequence, rules: LemmaRuleTable) -> TokenSequence:
    """Map each token to its lemma; output length always equals input length.

    The rules are a pure function of the token, so each distinct token goes
    through them once per table.
    """
    lemmas = rules.lemmas
    for token in set(seq).difference(lemmas):
        lemmas[token] = _apply_rules(token, rules)
    return [lemmas[t] for t in seq]


def preprocess(
    text: str,
    sw: StopwordList,
    rules: LemmaRuleTable,
) -> TokenSequence:
    """Full cleaning pipeline: tokenize, drop stopwords, lemmatize.

    A final stopword sweep keeps the output clean when a lemma lands on a
    stopword (e.g. "having" -> "have"). All three steps run in one loop
    over the tokens, with the lemmas memoised as in `lemmatize`.
    """
    words, lemmas = sw.words, rules.lemmas
    out = []
    for token in tokenize(text):
        if token in words:
            continue
        lemma = lemmas.get(token)
        if lemma is None:
            lemma = lemmas[token] = _apply_rules(token, rules)
        if lemma not in words:
            out.append(lemma)
    return out
