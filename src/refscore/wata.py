"""Word association thematic analysis over report corpora.

Reports are reduced to term-presence sets; each sufficiently frequent term
gets a 2x2 chi-square test of document containment between two corpora,
with Benjamini-Hochberg control of the false discovery rate. Keyword-in-
context sampling supports reading the surviving terms in place.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .util import substream

_TOKEN = re.compile(r"[a-z0-9]+")
MIN_TERM_LENGTH = 2
MIN_DOC_FREQ = 5

#: a comparison's keyword-in-context listing covers its strongest
#: KWIC_TERMS terms, samples KWIC_SAMPLES occurrences of each and shows
#: KWIC_WINDOW characters of context on either side
KWIC_TERMS = 5
KWIC_SAMPLES = 5
KWIC_WINDOW = 60

DIRECTION_A = "A"
DIRECTION_B = "B"


@dataclass(frozen=True)
class TokenizedDoc:
    """A document reduced to its id and term-presence set."""

    doc_id: str
    terms: frozenset[str]


def tokenize(doc_id: str, text: str) -> TokenizedDoc:
    """Lowercase, split on non-alphanumeric runs, keep terms of length >= 2.

    Only presence matters; within-document repetition is discarded. Terms
    are interned, so the many documents that share a term share one string.
    """
    terms = frozenset(
        map(sys.intern, {t for t in _TOKEN.findall(text.lower()) if len(t) >= MIN_TERM_LENGTH})
    )
    return TokenizedDoc(doc_id=doc_id, terms=terms)


@dataclass(frozen=True)
class TermStat:
    """Containment contrast for one term between corpora A and B."""

    term: str
    df_a: int
    df_b: int
    n_a: int
    n_b: int
    chi2: float
    p: float
    q: float
    direction: str

    def __post_init__(self):
        if not (0 <= self.df_a <= self.n_a and 0 <= self.df_b <= self.n_b):
            raise ValueError("document frequencies exceed corpus sizes")
        if self.q < self.p - 1e-15:
            raise ValueError("q-value below p-value")
        if self.direction not in (DIRECTION_A, DIRECTION_B):
            raise ValueError(f"unknown direction {self.direction!r}")

    @property
    def rate_a(self) -> float:
        return self.df_a / self.n_a

    @property
    def rate_b(self) -> float:
        return self.df_b / self.n_b


def benjamini_hochberg(p_values) -> np.ndarray:
    """Step-up BH q-values for a vector of p-values."""
    p = np.asarray(p_values, dtype=float)
    m = len(p)
    order = np.argsort(p, kind="stable")
    q = np.empty(m, dtype=float)
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, p[idx] * m / rank)
        q[idx] = running
    return q


def _chi2_presence(df_a: int, n_a: int, df_b: int, n_b: int) -> float:
    # 2x2 containment table without continuity correction, 1 d.f.
    a, b = df_a, n_a - df_a
    c, d = df_b, n_b - df_b
    n = n_a + n_b
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 0.0
    return n * (a * d - b * c) ** 2 / denom


def compare(
    corpus_a,
    corpus_b,
    q_threshold: float = 0.05,
    min_doc_freq: int = MIN_DOC_FREQ,
) -> list[TermStat]:
    """Contrast term containment between two report corpora.

    Every term appearing in at least ``min_doc_freq`` documents overall is
    tested; q-values control the false discovery rate across all tested
    terms. Only terms with q <= ``q_threshold`` are returned, sorted by
    chi-square descending (ties by term). Direction names the corpus with
    the higher containment rate.
    """
    docs_a = list(corpus_a)
    docs_b = list(corpus_b)
    n_a, n_b = len(docs_a), len(docs_b)
    if n_a == 0 or n_b == 0:
        raise ValueError("both corpora must be non-empty")
    if not (0.0 < q_threshold <= 1.0):
        raise ValueError("q_threshold must lie in (0, 1]")
    df_a: dict[str, int] = {}
    df_b: dict[str, int] = {}
    for doc in docs_a:
        for term in doc.terms:
            df_a[term] = df_a.get(term, 0) + 1
    for doc in docs_b:
        for term in doc.terms:
            df_b[term] = df_b.get(term, 0) + 1
    tested = sorted(
        t for t in set(df_a) | set(df_b)
        if df_a.get(t, 0) + df_b.get(t, 0) >= min_doc_freq
    )
    if not tested:
        return []
    chi2 = np.array(
        [_chi2_presence(df_a.get(t, 0), n_a, df_b.get(t, 0), n_b) for t in tested]
    )
    p = sps.chi2.sf(chi2, df=1)
    q = benjamini_hochberg(p)
    stats = []
    for i, term in enumerate(tested):
        if q[i] > q_threshold:
            continue
        fa, fb = df_a.get(term, 0), df_b.get(term, 0)
        direction = DIRECTION_A if fa / n_a > fb / n_b else DIRECTION_B
        stats.append(
            TermStat(
                term=term, df_a=fa, df_b=fb, n_a=n_a, n_b=n_b,
                chi2=float(chi2[i]), p=float(p[i]), q=float(q[i]),
                direction=direction,
            )
        )
    stats.sort(key=lambda s: (-s.chi2, s.term))
    return stats


@dataclass(frozen=True)
class KwicLine:
    """One keyword-in-context occurrence."""

    doc_id: str
    left: str
    term: str
    right: str


def kwic(term: str, documents, k: int, window: int = KWIC_WINDOW, seed: int = 0) -> list[KwicLine]:
    """Sample up to ``k`` occurrences of ``term`` with character context.

    ``documents`` is an iterable of (doc_id, text) pairs. Term matching
    mirrors the tokenizer: case-insensitive, bounded by non-alphanumerics.
    Sampling is uniform without replacement and deterministic in ``seed``;
    occurrences are returned in document order.
    """
    if not term:
        raise ValueError("term must be non-empty")
    if k < 1:
        raise ValueError("k must be positive")
    if window < 1:
        raise ValueError("window must be positive")
    pattern = re.compile(
        rf"(?<![a-z0-9]){re.escape(term.lower())}(?![a-z0-9])"
    )
    occurrences: list[tuple[str, str, int, int]] = []
    for doc_id, text in documents:
        for match in pattern.finditer(text.lower()):
            occurrences.append((doc_id, text, match.start(), match.end()))
    if len(occurrences) > k:
        rng = substream(seed, "kwic", term)
        picks = sorted(rng.choice(len(occurrences), size=k, replace=False))
        occurrences = [occurrences[i] for i in picks]
    lines = []
    for doc_id, text, start, end in occurrences:
        lines.append(
            KwicLine(
                doc_id=doc_id,
                left=text[max(0, start - window):start],
                term=text[start:end],
                right=text[end:end + window],
            )
        )
    return lines
