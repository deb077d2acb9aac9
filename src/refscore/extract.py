"""Parsing of model reports into structured scores.

Reports are free text. Scores are recovered by pattern, never by asking the
model again; anything unparseable is flagged rather than raised so a batch
is never aborted by one odd report.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import SCORE_MAX, SCORE_MIN

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"

FLAG_MULTI = "multi_article"
FLAG_NO_SCORE = "no_score_found"
FLAG_CLAMPED = "out_of_range_clamped"
FLAG_SUBSCORE = "subscore_fallback"

_NUM = r"(\d+(?:\.\d+)?)"
_DECOR = r"[*_]*"
# Whitespace and emphasis markup, in any order, between a label and its value.
# One class instead of "\s*[*_]*\s*" keeps every pattern linear in the length
# of a run: with two "\s*" the engine tries every split of a run between them.
_GAP = r"[\s*_]*"

# Labeled overall: "Score: 3", "Score: 3*", "****Score: 3*****",
# "**Score: 3* (Internationally Excellent)**". "scores" (plural) never
# matches, so few-shot exemplar lines echoed back are not misread.
_OVERALL_LABELED = re.compile(
    rf"\bscore\b\s*:{_GAP}{_NUM}", re.IGNORECASE
)

# Phrase-anchored overall: "3* (Internationally Excellent)" and the other
# star-level phrases. The number must start a number: "(?<![\d.]\d)" after
# its first digit rejects a start inside a digit run or after a decimal
# point, without the cost of a lookbehind at the start of the pattern.
_OVERALL_PHRASE = re.compile(
    r"(\d(?<![\d.]\d)\d*(?:\.\d+)?)\s*\*+\s*\(\s*(?:nationally|internationally|world)",
    re.IGNORECASE,
)

# Sub-scores: "Originality (3*)", "Originality: 3*", "Originality: 3/4",
# with optional bold markup. Both spellings of rigour are accepted. The
# value must end in a star or "/4" so prose like "significance (0.05)"
# is never misread as a sub-score.
_SUB_BODY = rf"{_GAP}[:(]{_GAP}{_NUM}\s*(?:/\s*4|\*)"
_SUB_PATTERNS = {
    "originality": re.compile(rf"\boriginality\b{_SUB_BODY}", re.IGNORECASE),
    "significance": re.compile(rf"\bsignificance\b{_SUB_BODY}", re.IGNORECASE),
    "rigour": re.compile(rf"\brigou?r\b{_SUB_BODY}", re.IGNORECASE),
}

# Per-article score assignments, e.g. "Article 1: 2*", "Article 2 : Score 2*",
# "(Article 1: 2/4". Two or more distinct article numbers mean the model
# scored several articles instead of the target.
_ARTICLE_SCORE = re.compile(
    rf"\barticle\s*(\d+){_DECOR}\s*(?:\([^)]*\)\s*)?[:\-]{_GAP}"
    rf"(?:score(?:\s*[:\-])?{_GAP})?{_NUM}",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class ReportSections:
    """A report split into its thinking span and the remainder."""

    thinking: str
    report: str


@dataclass
class ParsedScore:
    """Scores recovered from one report, with quality flags."""

    overall: float | None = None
    originality: float | None = None
    significance: float | None = None
    rigour: float | None = None
    flags: set[str] = field(default_factory=set)

    @property
    def subscores(self) -> list[float]:
        return [
            v for v in (self.originality, self.significance, self.rigour)
            if v is not None
        ]


def split_reasoning(text: str) -> ReportSections:
    """Split the first ``<think>...</think>`` span from the report body.

    An unmatched opening tag makes everything after it thinking. Text
    without tags has empty thinking.
    """
    start = text.find(THINK_OPEN)
    if start < 0:
        return ReportSections(thinking="", report=text)
    inner_start = start + len(THINK_OPEN)
    end = text.find(THINK_CLOSE, inner_start)
    if end < 0:
        return ReportSections(thinking=text[inner_start:], report=text[:start])
    return ReportSections(
        thinking=text[inner_start:end],
        report=text[:start] + text[end + len(THINK_CLOSE):],
    )


def _clamp_score(value: float, flags: set[str]) -> float:
    if value < SCORE_MIN:
        flags.add(FLAG_CLAMPED)
        return SCORE_MIN
    if value > SCORE_MAX:
        flags.add(FLAG_CLAMPED)
        return SCORE_MAX
    return value


def parse_scores(report: str) -> ParsedScore:
    """Recover the overall score and any sub-scores from report text.

    All overall forms are pooled and the last match by position wins,
    because models rehearse candidate scores before committing. Values are
    clamped to [1, 4] with a flag. A report with neither an overall score
    nor sub-scores gets the no-score flag.
    """
    parsed = ParsedScore()
    overall_matches = list(_OVERALL_LABELED.finditer(report))
    overall_matches += list(_OVERALL_PHRASE.finditer(report))
    if overall_matches:
        last = max(overall_matches, key=lambda m: m.start(1))
        parsed.overall = _clamp_score(float(last.group(1)), parsed.flags)
    for name, pattern in _SUB_PATTERNS.items():
        matches = list(pattern.finditer(report))
        if matches:
            value = _clamp_score(float(matches[-1].group(1)), parsed.flags)
            setattr(parsed, name, value)
    if parsed.overall is None and not parsed.subscores:
        parsed.flags.add(FLAG_NO_SCORE)
    return parsed


def detect_multi_article(report: str) -> bool:
    """True when the report assigns scores to two or more enumerated articles."""
    numbers = {m.group(1) for m in _ARTICLE_SCORE.finditer(report)}
    return len(numbers) >= 2


def effective_score(parsed: ParsedScore, multi_article: bool) -> float | None:
    """The single score a report contributes to averaging.

    Multi-article reports contribute nothing. Otherwise the overall score
    wins; with no overall, the mean of available sub-scores stands in.
    """
    if multi_article:
        return None
    if parsed.overall is not None:
        return parsed.overall
    subs = parsed.subscores
    if subs:
        return sum(subs) / len(subs)
    return None


@dataclass
class ReportAnalysis:
    """Full extraction result for one report."""

    sections: ReportSections
    parsed: ParsedScore
    multi_article: bool
    effective: float | None


def analyze_report(text: str) -> ReportAnalysis:
    """Split, parse, detect confusion and compute the effective score.

    The returned ParsedScore carries the complete flag set, including the
    flags that only arise when deciding the effective score.
    """
    sections = split_reasoning(text)
    parsed = parse_scores(sections.report)
    multi = detect_multi_article(sections.report)
    effective = effective_score(parsed, multi)
    if multi:
        parsed.flags.add(FLAG_MULTI)
    elif parsed.overall is None and effective is not None:
        parsed.flags.add(FLAG_SUBSCORE)
    return ReportAnalysis(
        sections=sections, parsed=parsed, multi_article=multi, effective=effective
    )
