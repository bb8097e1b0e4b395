"""Tokenization and needle decomposition for the term index.

Terms are maximal ``\\w+`` runs, lowercased — the usual "word"
granularity of an inverted index.  The index is a *prefilter*: the
lifted ``contains`` plan uses lowercased token postings to prune
candidates and re-verifies survivors with the exact (case-sensitive)
substring test, so lowercasing here only ever over-approximates.

:func:`needle_token_spec` decomposes a ``contains`` needle into token
constraints.  If ``needle`` occurs as a substring of some text, then
every maximal word-char run of the needle appears inside one corpus
token, and the position of the run *within the needle* bounds how:

* an inner run (non-word chars on both sides in the needle) must equal
  its corpus token exactly — the needle supplies both boundaries;
* the leading run of a needle that starts with a word char only
  constrains its corpus token's *suffix* (the occurrence may extend
  further left: needle ``"ship now"`` matches token ``"flagship"``);
* symmetrically the trailing run constrains a *prefix*;
* a needle that is one unbroken word-char run can sit anywhere inside
  a corpus token (``"ship"`` matches ``"shipping"``): substring mode.

A corpus token here is either a token of a single text/attribute value
or a *seam token* spanning adjacent text nodes (see
:meth:`repro.search.index.TermIndex` — ``<d>worl<b/>dwide</d>`` has
string value ``"worldwide"``); both are checked under the same modes.
"""

from __future__ import annotations

import re

TOKEN_RE = re.compile(r"\w+")

#: Needle-token match modes (see module docstring).
MODE_EXACT = "exact"
MODE_PREFIX = "prefix"
MODE_SUFFIX = "suffix"
MODE_SUBSTRING = "substring"


def tokenize(text: str) -> list[str]:
    """All tokens of *text*, lowercased, in order (with repeats)."""
    return TOKEN_RE.findall(text.lower())


def distinct_tokens(text: str) -> tuple[str, ...]:
    """Distinct tokens of *text* — the posting granularity (a term is
    posted once per node no matter how often it repeats)."""
    return tuple(dict.fromkeys(tokenize(text)))


def needle_token_spec(needle: str) -> list[tuple[str, str]]:
    """Decompose a needle into ``(token, mode)`` constraints.

    Every constraint must be satisfied by some corpus token inside a
    candidate's window for the needle to possibly occur there (a
    *necessary* condition — the prefilter contract).  An empty list
    means the needle contains no word characters and token postings
    cannot constrain it (the caller falls back to "window has any text
    at all").
    """
    lowered = needle.lower()
    spec: list[tuple[str, str]] = []
    for match in TOKEN_RE.finditer(lowered):
        bounded_left = match.start() > 0
        bounded_right = match.end() < len(lowered)
        if bounded_left and bounded_right:
            mode = MODE_EXACT
        elif bounded_left:
            mode = MODE_PREFIX      # trailing run: corpus token starts with it
        elif bounded_right:
            mode = MODE_SUFFIX      # leading run: corpus token ends with it
        else:
            mode = MODE_SUBSTRING   # the needle is one unbroken run
        spec.append((match.group(), mode))
    return spec


def token_matches(corpus_token: str, needle_token: str, mode: str) -> bool:
    """Does *corpus_token* satisfy one needle-token constraint?"""
    if mode == MODE_EXACT:
        return corpus_token == needle_token
    if mode == MODE_PREFIX:
        return corpus_token.startswith(needle_token)
    if mode == MODE_SUFFIX:
        return corpus_token.endswith(needle_token)
    return needle_token in corpus_token


def is_word_char(ch: str) -> bool:
    """Is *ch* a ``\\w`` character (token-run member)?"""
    return bool(TOKEN_RE.match(ch))
