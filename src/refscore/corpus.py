"""Article ingestion, eligibility filtering, sampling and gold standards.

Articles arrive as JSONL, one object per line with keys ``id``, ``uoa``,
``doi`` (nullable), ``title`` and ``abstract``. Gold standards are CSV
files with header ``article_id,score``. Few-shot exemplar pools are JSONL
with the article keys plus ``star``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .util import json_objects, substream

DEFAULT_UNITS = (1, 2, 3, 4, 5, 6)
STAR_LEVELS = (1, 2, 3, 4)

#: gold-standard kinds
PROXY = "departmental_proxy"
INDIVIDUAL = "individual"
GOLD_KINDS = (PROXY, INDIVIDUAL)

#: the star scale every score and gold value lies on
SCORE_MIN = 1.0
SCORE_MAX = 4.0


@dataclass(frozen=True)
class Article:
    """One journal article within a unit of assessment."""

    id: str
    uoa: int
    title: str
    abstract: str
    doi: str | None = None


class ArticleSet:
    """Ordered, id-unique collection of articles.

    Parameters
    ----------
    articles : iterable of Article
    units : tuple of int
        Admissible unit-of-assessment codes.
    eligibility_filtered : bool
        Set by :func:`filter_eligible`; marks that the eligibility screens
        and the per-uoa shortest-decile cut have already been applied, so
        re-filtering is a no-op.
    """

    def __init__(self, articles, units=DEFAULT_UNITS, eligibility_filtered=False):
        self.articles: tuple[Article, ...] = tuple(articles)
        self.units = tuple(units)
        self.eligibility_filtered = bool(eligibility_filtered)
        self.by_id: dict[str, Article] = {}
        for art in self.articles:
            if not art.id:
                raise ValueError("article with empty id")
            if art.id in self.by_id:
                raise ValueError(f"duplicate article id {art.id!r}")
            if not art.title:
                raise ValueError(f"article {art.id!r} has an empty title")
            if art.uoa not in self.units:
                raise ValueError(
                    f"article {art.id!r} has uoa {art.uoa}, not in units {self.units}"
                )
            self.by_id[art.id] = art

    def __len__(self) -> int:
        return len(self.articles)

    def __iter__(self):
        return iter(self.articles)

    def __contains__(self, article_id: str) -> bool:
        return article_id in self.by_id

    def ids(self) -> list[str]:
        return [a.id for a in self.articles]

    def by_uoa(self) -> dict[int, list[Article]]:
        grouped: dict[int, list[Article]] = {}
        for art in self.articles:
            grouped.setdefault(art.uoa, []).append(art)
        return grouped

    def replace(self, articles, eligibility_filtered=None) -> "ArticleSet":
        if eligibility_filtered is None:
            eligibility_filtered = self.eligibility_filtered
        return ArticleSet(articles, self.units, eligibility_filtered)


@dataclass(frozen=True)
class GoldStandard:
    """Reference quality scores keyed by article id.

    ``kind`` distinguishes departmental-average proxies from per-article
    scores; every score lies in [1, 4].
    """

    kind: str
    scores: dict[str, float]

    def __post_init__(self):
        if self.kind not in GOLD_KINDS:
            raise ValueError(f"unknown gold kind {self.kind!r}")
        for art_id, score in self.scores.items():
            if not (SCORE_MIN <= score <= SCORE_MAX):
                raise ValueError(
                    f"gold score {score} for {art_id!r} outside [{SCORE_MIN}, {SCORE_MAX}]"
                )

    def __len__(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class ExemplarArticle:
    """A worked example carrying its assigned star level."""

    article: Article
    star: int

    def __post_init__(self):
        if self.star not in STAR_LEVELS:
            raise ValueError(f"exemplar {self.article.id!r} has star {self.star}")


class FewShotPool:
    """Exactly two exemplars per (uoa, star) cell, all four star levels per uoa."""

    def __init__(self, exemplars):
        cells: dict[tuple[int, int], list[ExemplarArticle]] = {}
        for ex in exemplars:
            cells.setdefault((ex.article.uoa, ex.star), []).append(ex)
        for (uoa, star), members in sorted(cells.items()):
            if len(members) != 2:
                raise ValueError(
                    f"few-shot pool cell (uoa {uoa}, {star}*) has "
                    f"{len(members)} exemplar(s), expected exactly 2"
                )
        uoas = sorted({uoa for uoa, _ in cells})
        for uoa in uoas:
            for star in STAR_LEVELS:
                if (uoa, star) not in cells:
                    raise ValueError(f"few-shot pool cell (uoa {uoa}, {star}*) is empty")
        self.cells = {key: tuple(members) for key, members in cells.items()}
        self.uoas = tuple(uoas)

    def exemplars(self, uoa: int, star: int) -> tuple[ExemplarArticle, ExemplarArticle]:
        try:
            return self.cells[(uoa, star)]
        except KeyError:
            raise ValueError(f"few-shot pool has no cell (uoa {uoa}, {star}*)") from None

    def __len__(self) -> int:
        return sum(len(v) for v in self.cells.values())


def _parse_article(obj: dict, line_no: int, units) -> Article:
    for key in ("id", "uoa", "title", "abstract"):
        if key not in obj:
            raise ValueError(f"line {line_no}: missing key {key!r}")
    art_id = obj["id"]
    if not isinstance(art_id, str) or not art_id:
        raise ValueError(f"line {line_no}: id must be a non-empty string")
    uoa = obj["uoa"]
    if not isinstance(uoa, int) or isinstance(uoa, bool):
        raise ValueError(f"line {line_no}: uoa must be an integer")
    if uoa not in units:
        raise ValueError(f"line {line_no}: uoa {uoa} not in units {tuple(units)}")
    title = obj["title"]
    if not isinstance(title, str) or not title:
        raise ValueError(f"line {line_no}: title must be a non-empty string")
    abstract = obj["abstract"]
    if abstract is None:
        abstract = ""
    if not isinstance(abstract, str):
        raise ValueError(f"line {line_no}: abstract must be a string or null")
    doi = obj.get("doi")
    if doi is not None and (not isinstance(doi, str) or not doi):
        raise ValueError(f"line {line_no}: doi must be a non-empty string or null")
    return Article(id=art_id, uoa=uoa, title=title, abstract=abstract, doi=doi)


def load_articles(path: str | Path, units=DEFAULT_UNITS) -> ArticleSet:
    """Read an article JSONL file.

    Malformed records fail with the offending line number; duplicate ids
    fail naming both lines. An empty file yields an empty set.
    """
    articles: list[Article] = []
    seen: dict[str, int] = {}
    for line_no, obj in json_objects(path):
        art = _parse_article(obj, line_no, units)
        if art.id in seen:
            raise ValueError(
                f"duplicate article id {art.id!r} on lines {seen[art.id]} and {line_no}"
            )
        seen[art.id] = line_no
        articles.append(art)
    return ArticleSet(articles, units)


def filter_eligible(article_set: ArticleSet) -> ArticleSet:
    """Drop ineligible articles.

    Removes articles with a missing DOI or a missing/empty abstract, then
    per uoa the strictly shortest 10% of abstracts by character count.
    The cut threshold is the length at rank floor(0.1 * n); articles tied
    with it are all retained. A set that has already been filtered passes
    through unchanged, so the operation is idempotent.
    """
    if article_set.eligibility_filtered:
        return article_set
    screened = [
        a for a in article_set
        if a.doi and a.abstract.strip()
    ]
    kept: list[Article] = []
    thresholds: dict[int, int] = {}
    grouped: dict[int, list[Article]] = {}
    for art in screened:
        grouped.setdefault(art.uoa, []).append(art)
    for uoa, members in grouped.items():
        lengths = sorted(len(a.abstract) for a in members)
        cut_rank = math.floor(0.10 * len(members))
        thresholds[uoa] = lengths[cut_rank]
    for art in screened:
        if len(art.abstract) >= thresholds[art.uoa]:
            kept.append(art)
    return article_set.replace(kept, eligibility_filtered=True)


def sample_per_uoa(article_set: ArticleSet, n: int, seed: int) -> ArticleSet:
    """Uniformly sample up to ``n`` articles per uoa, deterministically in ``seed``.

    Input order is preserved within the sample. A uoa with fewer than
    ``n`` articles keeps them all.
    """
    if n < 0:
        raise ValueError("sample size must be non-negative")
    selected: set[str] = set()
    for uoa, members in sorted(article_set.by_uoa().items()):
        if len(members) <= n:
            selected.update(a.id for a in members)
            continue
        rng = substream(seed, "sample-uoa", uoa)
        picks = rng.choice(len(members), size=n, replace=False)
        selected.update(members[i].id for i in picks)
    kept = [a for a in article_set if a.id in selected]
    return article_set.replace(kept)


def load_gold_csv(path: str | Path, kind: str, article_set: ArticleSet | None = None) -> GoldStandard:
    """Read a gold CSV with header ``article_id,score``."""
    scores: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"article_id", "score"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected header article_id,score")
        for row_no, row in enumerate(reader, start=2):
            art_id = row["article_id"]
            try:
                score = float(row["score"])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: row {row_no}: score is not a number") from None
            if art_id in scores:
                raise ValueError(f"{path}: duplicate article id {art_id!r}")
            if article_set is not None and art_id not in article_set:
                raise ValueError(f"{path}: row {row_no}: unknown article {art_id!r}")
            scores[art_id] = score
    return GoldStandard(kind, scores)


def load_fewshot_pool(path: str | Path, eval_set: ArticleSet) -> FewShotPool:
    """Read an exemplar JSONL file and validate it against the evaluation set.

    Exemplar ids must be disjoint from the evaluation set; each (uoa, star)
    cell present must hold exactly two exemplars.
    """
    exemplars: list[ExemplarArticle] = []
    for line_no, obj in json_objects(path):
        if "star" not in obj:
            raise ValueError(f"line {line_no}: missing key 'star'")
        star = obj["star"]
        if star not in STAR_LEVELS:
            raise ValueError(f"line {line_no}: star must be one of {STAR_LEVELS}")
        art = _parse_article(obj, line_no, eval_set.units)
        if art.id in eval_set:
            raise ValueError(f"exemplar {art.id!r} overlaps the evaluation set")
        exemplars.append(ExemplarArticle(article=art, star=star))
    return FewShotPool(exemplars)
