"""Article ingestion, eligibility filtering, sampling and gold standards.

Articles arrive as JSONL, one object per line with keys ``id``, ``uoa``,
``doi`` (nullable), ``title`` and ``abstract``; :class:`Article` checks each
field. Gold standards are CSV files with header ``article_id,score``.
Few-shot exemplar pools are JSONL with the article keys plus ``star``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .util import json_objects, substream

#: the units of assessment an article may belong to
UNITS = (1, 2, 3, 4, 5, 6)
STAR_LEVELS = (1, 2, 3, 4)

#: gold-standard kinds
PROXY = "departmental_proxy"
INDIVIDUAL = "individual"
GOLD_KINDS = (PROXY, INDIVIDUAL)
#: the header of every gold CSV
GOLD_HEADER = ("article_id", "score")

#: the star scale every score and gold value lies on
SCORE_MIN = 1.0
SCORE_MAX = 4.0


@dataclass(frozen=True)
class Article:
    """One journal article within a unit of assessment.

    A null ``abstract`` becomes ``""``; every other bad field raises.
    """

    id: str
    uoa: int
    title: str
    abstract: str
    doi: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("id must be a non-empty string")
        if type(self.uoa) is not int:
            raise ValueError("uoa must be an integer")
        if self.uoa not in UNITS:
            raise ValueError(f"uoa {self.uoa} not in units {UNITS}")
        if not isinstance(self.title, str) or not self.title:
            raise ValueError("title must be a non-empty string")
        if self.abstract is None:
            object.__setattr__(self, "abstract", "")
        if not isinstance(self.abstract, str):
            raise ValueError("abstract must be a string or null")
        if self.doi is not None and (not isinstance(self.doi, str) or not self.doi):
            raise ValueError("doi must be a non-empty string or null")


class ArticleSet:
    """Ordered, id-unique collection of articles."""

    def __init__(self, articles):
        self.articles: tuple[Article, ...] = tuple(articles)
        self.by_id: dict[str, Article] = {}
        for art in self.articles:
            if art.id in self.by_id:
                raise ValueError(f"duplicate article id {art.id!r}")
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
        if type(self.star) is not int or self.star not in STAR_LEVELS:
            raise ValueError(f"star must be one of {STAR_LEVELS}, not {self.star!r}")


class FewShotPool:
    """Two exemplars per (uoa, star) cell, all four star levels per uoa, no id twice."""

    def __init__(self, exemplars):
        cells: dict[tuple[int, int], list[ExemplarArticle]] = {}
        seen: set[str] = set()
        for ex in exemplars:
            if ex.article.id in seen:
                raise ValueError(f"few-shot pool repeats exemplar id {ex.article.id!r}")
            seen.add(ex.article.id)
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


def _parse_article(obj: dict, where: str) -> Article:
    for key in ("id", "uoa", "title", "abstract"):
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
    try:
        return Article(obj["id"], obj["uoa"], obj["title"], obj["abstract"], obj.get("doi"))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_articles(path: str | Path) -> ArticleSet:
    """Read an article JSONL file.

    Malformed records fail naming the file and the offending line;
    duplicate ids fail naming both lines. An empty file yields an empty set.
    """
    articles: list[Article] = []
    seen: dict[str, int] = {}
    for line_no, obj in json_objects(path):
        art = _parse_article(obj, f"{path}: line {line_no}")
        if art.id in seen:
            raise ValueError(
                f"{path}: duplicate article id {art.id!r} on lines {seen[art.id]} and {line_no}"
            )
        seen[art.id] = line_no
        articles.append(art)
    return ArticleSet(articles)


def filter_eligible(article_set: ArticleSet) -> ArticleSet:
    """Drop ineligible articles.

    Removes articles with a missing DOI or a missing/empty abstract, then
    per uoa the strictly shortest 10% of abstracts by character count.
    The cut threshold is the length at rank floor(0.1 * n); articles tied
    with it are all retained.
    """
    screened = ArticleSet(a for a in article_set if a.doi and a.abstract.strip())
    thresholds: dict[int, int] = {}
    for uoa, members in screened.by_uoa().items():
        lengths = sorted(len(a.abstract) for a in members)
        thresholds[uoa] = lengths[math.floor(0.10 * len(members))]
    return ArticleSet(a for a in screened if len(a.abstract) >= thresholds[a.uoa])


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
    return ArticleSet(a for a in article_set if a.id in selected)


def load_gold_csv(path: str | Path, kind: str) -> GoldStandard:
    """Read a gold CSV with header ``article_id,score``, skipping a leading
    UTF-8 byte-order mark. Every error names the file."""
    scores: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(GOLD_HEADER) <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected header {','.join(GOLD_HEADER)}")
        for row in reader:
            art_id = row["article_id"]
            try:
                score = float(row["score"])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: row {reader.line_num}: score is not a number") from None
            if art_id in scores:
                raise ValueError(f"{path}: duplicate article id {art_id!r}")
            scores[art_id] = score
    try:
        return GoldStandard(kind, scores)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_fewshot_pool(path: str | Path, eval_set: ArticleSet) -> FewShotPool:
    """Read an exemplar JSONL file whose ids are disjoint from the evaluation
    set. Every error names the file, and the line where it has one."""
    exemplars: list[ExemplarArticle] = []
    for line_no, obj in json_objects(path):
        where = f"{path}: line {line_no}"
        if "star" not in obj:
            raise ValueError(f"{where}: missing key 'star'")
        art = _parse_article(obj, where)
        if art.id in eval_set:
            raise ValueError(f"{where}: exemplar {art.id!r} overlaps the evaluation set")
        try:
            exemplars.append(ExemplarArticle(art, obj["star"]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    try:
        return FewShotPool(exemplars)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
