"""Tests for report parsing and score extraction."""
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from refscore import extract
from refscore.extract import (
    FLAG_CLAMPED,
    FLAG_MULTI,
    FLAG_NO_SCORE,
    FLAG_SUBSCORE,
    SCORE_MAX,
    SCORE_MIN,
    THINK_CLOSE,
    THINK_OPEN,
    ReportSections,
    analyze_report,
    detect_multi_article,
    effective_score,
    parse_scores,
    split_reasoning,
)
from refscore.gateway import MOCK_STYLES, simulate_completion

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "reports"
EXPECTED = json.loads((FIXTURE_DIR / "expected.json").read_text())

ALL_FLAGS = {FLAG_CLAMPED, FLAG_MULTI, FLAG_NO_SCORE, FLAG_SUBSCORE}


class TestSplitReasoning:
    def test_no_tags_is_all_report(self):
        text = "Score: 3*\nA short verdict."
        sections = split_reasoning(text)
        assert sections.thinking == ""
        assert sections.report == text

    def test_well_formed_pair_recovers_both_parts(self):
        inner = " weighing the evidence, maybe 2*? "
        before = "Preamble. "
        after = "\nScore: 3*\n"
        text = before + THINK_OPEN + inner + THINK_CLOSE + after
        sections = split_reasoning(text)
        assert sections.thinking == inner
        assert sections.report == before + after

    def test_unmatched_open_tag_takes_the_suffix(self):
        text = "Score: 2*\n" + THINK_OPEN + " but wait, the cohort"
        sections = split_reasoning(text)
        assert sections.report == "Score: 2*\n"
        assert sections.thinking == " but wait, the cohort"

    def test_only_first_pair_is_removed(self):
        text = "a<think>x</think>b<think>y</think>c"
        sections = split_reasoning(text)
        assert sections.thinking == "x"
        assert sections.report == "ab<think>y</think>c"

    def test_empty_text(self):
        assert split_reasoning("") == ReportSections(thinking="", report="")

    def test_random_assemblies_round_trip(self):
        # parts are recovered exactly for any well-formed single pair
        rng = np.random.default_rng(42)
        pieces = ["", "x", "Score: 3*", "\n\n", "tag soup )(", "4* (world"]
        for _ in range(100):
            before, inner, after = (
                pieces[int(rng.integers(len(pieces)))] for _ in range(3)
            )
            text = before + THINK_OPEN + inner + THINK_CLOSE + after
            sections = split_reasoning(text)
            assert sections.thinking == inner
            assert sections.report == before + after


class TestFixtureCorpus:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fixture_matches_expected(self, name):
        text = (FIXTURE_DIR / f"{name}.txt").read_text()
        expected = EXPECTED[name]
        analysis = analyze_report(text)
        assert (analysis.sections.thinking != "") == expected["thinking"]
        assert analysis.parsed.overall == expected["overall"]
        assert analysis.parsed.originality == expected["originality"]
        assert analysis.parsed.significance == expected["significance"]
        assert analysis.parsed.rigour == expected["rigour"]
        assert sorted(analysis.parsed.flags) == expected["flags"]
        assert analysis.multi_article == (FLAG_MULTI in expected["flags"])
        if expected["effective"] is None:
            assert analysis.effective is None
        else:
            assert analysis.effective == pytest.approx(
                expected["effective"], abs=1e-12
            )

    def test_every_fixture_has_an_expectation(self):
        stems = {p.stem for p in FIXTURE_DIR.glob("*.txt")}
        assert stems == set(EXPECTED)


class TestParseScores:
    def test_last_overall_match_wins_across_forms(self):
        text = "Maybe 2* (nationally recognised) at first glance. Score: 3*"
        assert parse_scores(text).overall == 3.0
        text = "Score: 3* initially, but settle on 2* (nationally recognised)"
        assert parse_scores(text).overall == 2.0

    def test_plural_scores_label_never_matches(self):
        parsed = parse_scores("Final Scores: 4\nNothing else here.")
        assert parsed.overall is None
        assert FLAG_NO_SCORE in parsed.flags

    def test_below_range_clamps_up(self):
        parsed = parse_scores("Score: 0*")
        assert parsed.overall == SCORE_MIN
        assert FLAG_CLAMPED in parsed.flags

    def test_above_range_clamps_down(self):
        parsed = parse_scores("Score: 17")
        assert parsed.overall == SCORE_MAX
        assert FLAG_CLAMPED in parsed.flags

    def test_subscore_needs_star_or_out_of_four(self):
        parsed = parse_scores("originality (3) is hard to judge numerically")
        assert parsed.originality is None
        parsed = parse_scores("Originality (3*) stands out")
        assert parsed.originality == 3.0
        parsed = parse_scores("Originality: 3/4 overall")
        assert parsed.originality == 3.0

    def test_rigor_spelling_variant(self):
        parsed = parse_scores("Rigor: 2* given the missing controls")
        assert parsed.rigour == 2.0

    def test_values_always_in_range(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            value = rng.uniform(-50, 50)
            parsed = parse_scores(f"Score: {abs(value):.2f}*")
            assert SCORE_MIN <= parsed.overall <= SCORE_MAX
        for text in ("Score: 100", "Originality: 9/4 s", "Rigour (0*)"):
            parsed = parse_scores(text)
            for v in [parsed.overall] + parsed.subscores:
                if v is not None:
                    assert SCORE_MIN <= v <= SCORE_MAX

    def test_flags_come_from_known_set(self):
        for name in EXPECTED:
            text = (FIXTURE_DIR / f"{name}.txt").read_text()
            assert analyze_report(text).parsed.flags <= ALL_FLAGS


class TestDetectMultiArticle:
    def test_single_article_mention_is_fine(self):
        assert not detect_multi_article("Article 1: 3* and that is all")

    def test_two_distinct_numbers_trip_detection(self):
        assert detect_multi_article("Article 1: 3*\nArticle 2: 2*")

    def test_repeated_same_number_does_not(self):
        assert not detect_multi_article("Article 1: 3*. Again, Article 1: 3*.")

    def test_score_word_between_label_and_value(self):
        assert detect_multi_article(
            "- Article 1 : Score 1*\n- Article 2 : Score 4*"
        )


class TestEffectiveScore:
    def test_multi_article_contributes_nothing(self):
        parsed = parse_scores("Score: 3*")
        assert effective_score(parsed, multi_article=True) is None

    def test_overall_beats_subscores(self):
        parsed = parse_scores(
            "Originality: 1*\nSignificance: 1*\nRigour: 1*\nScore: 4*"
        )
        assert effective_score(parsed, False) == 4.0

    def test_subscore_mean_fallback(self):
        parsed = parse_scores("Originality: 2*\nRigour: 3*")
        assert effective_score(parsed, False) == pytest.approx(2.5)

    def test_monotone_in_overall(self):
        # higher stated score never yields a lower effective score
        grid = np.linspace(0.0, 6.0, 25)
        values = [
            effective_score(parse_scores(f"Score: {g:.3f}*"), False)
            for g in grid
        ]
        for a, b in zip(values, values[1:]):
            assert a <= b or a == SCORE_MAX


class TestZeroNoiseRecovery:
    # with zero noise the embedded score equals the latent quality, so the
    # parser must hand it back exactly for every parseable style
    def test_parseable_styles_recover_latent_exactly(self):
        half_grid = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        count = 0
        for style in ("plain", "reasoning", "subscores-only"):
            for latent in half_grid:
                for seed in range(10):
                    text = simulate_completion(latent, 0.0, seed, style=style)
                    analysis = analyze_report(text)
                    assert analysis.effective == latent, (style, latent, seed)
                    assert not analysis.multi_article
                    count += 1
        assert count == 210

    def test_multi_article_style_is_flagged_not_scored(self):
        for seed in range(30):
            text = simulate_completion(3.0, 0.0, seed, style="multi-article")
            analysis = analyze_report(text)
            assert analysis.multi_article
            assert analysis.effective is None
            assert FLAG_MULTI in analysis.parsed.flags

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="style"):
            simulate_completion(3.0, 0.0, 0, style="haiku")

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            simulate_completion(3.0, -0.1, 0)

    def test_noisy_scores_stay_on_half_grid_in_range(self):
        for seed in range(50):
            text = simulate_completion(2.5, 5.0, seed, style="plain")
            analysis = analyze_report(text)
            value = analysis.effective
            assert SCORE_MIN <= value <= SCORE_MAX
            assert value * 2 == int(value * 2)


class TestLinearTime:
    # each shape took seconds to minutes with two "\s*" around the markup
    # class; 100k characters must parse well inside the bound
    N = 100_000

    @pytest.mark.parametrize(
        "text",
        [
            "Article 1:" + " " * N + "(see table)",
            "Article 1:" + "\n" * N + "(see table)",
            "Article 1: score" + " " * N,
            "Rigour" + " " * N,
            "Originality:" + " " * N,
            "score:" + " " * N,
            "7" * N,
        ],
        ids=[
            "article-spaces", "article-newlines", "article-score-spaces",
            "label-spaces", "label-colon-spaces", "score-colon-spaces", "digit-run",
        ],
    )
    def test_adversarial_shape_parses_fast(self, text):
        start = time.perf_counter()
        analyze_report(text)
        assert time.perf_counter() - start < 0.5


class TestGapInterleavings:
    # the one gap class accepts whitespace and markup in any order
    def test_interleaved_markup_before_overall(self):
        assert parse_scores("Score: * _ * 3").overall == 3.0

    def test_interleaved_markup_before_subscore(self):
        assert parse_scores("Originality: _ * 3*").originality == 3.0

    def test_phrase_number_never_starts_after_a_point(self):
        parsed = parse_scores("rated .5* (World leading)")
        assert parsed.overall is None
        assert FLAG_NO_SCORE in parsed.flags


# The patterns of the earlier parser, kept as the reference: the linear
# rewrite must find the same matches on every ordinary report.
_OLD_NUM = r"(\d+(?:\.\d+)?)"
_OLD_DECOR = r"[*_]*"
_OLD_SUB_BODY = rf"\s*{_OLD_DECOR}\s*[:(]\s*{_OLD_DECOR}\s*{_OLD_NUM}\s*(?:/\s*4|\*)"
OLD_PATTERNS = {
    "labeled": re.compile(rf"\bscore\b\s*:\s*{_OLD_DECOR}\s*{_OLD_NUM}", re.I),
    "phrase": re.compile(
        rf"{_OLD_NUM}\s*\*+\s*\(\s*(?:nationally|internationally|world)", re.I
    ),
    "originality": re.compile(rf"\boriginality\b{_OLD_SUB_BODY}", re.I),
    "significance": re.compile(rf"\bsignificance\b{_OLD_SUB_BODY}", re.I),
    "rigour": re.compile(rf"\brigou?r\b{_OLD_SUB_BODY}", re.I),
    "article": re.compile(
        rf"\barticle\s*(\d+){_OLD_DECOR}\s*(?:\([^)]*\))?\s*[:\-]\s*{_OLD_DECOR}"
        rf"\s*(?:score\s*[:\-]?\s*)?{_OLD_DECOR}\s*{_OLD_NUM}",
        re.I,
    ),
}
NEW_PATTERNS = {
    "labeled": extract._OVERALL_LABELED,
    "phrase": extract._OVERALL_PHRASE,
    **extract._SUB_PATTERNS,
    "article": extract._ARTICLE_SCORE,
}
HAND_REPORTS = [
    "",
    "Article 1: score **3*\nArticle 2: 2*",
    "- Article 1 : Score 1*\n- Article 2 : Score 4*",
    "(Article 1: 2/4) and (Article 2: 3/4)",
    "Article 3 (the cohort study): 2*\nArticle 4 (trial) - 3*",
    "Article 2 - score: 3",
    "**Article 1**: **3***",
    "Article 1:" + " " * 200 + "(see table)",
    "**Score: 3* (Internationally Excellent)**",
    "****Score: 3*****",
    "**Score:** 2.5",
    "Score : _4_",
    "Score:" + " " * 200,
    "Final Scores: 4",
    "1.5* (World leading) then 3 ** ( internationally excellent)",
    "12* (world class)",
    "7" * 300 + "* (World leading)",
    "Originality (3*) and **Originality ( 2* )**",
    "Significance: 3/4, though significance (0.05) is prose",
    "Rigor: 2 / 4",
]


def _mock_reports():
    rng = np.random.default_rng(11)
    for style in MOCK_STYLES:
        for seed in range(150):
            yield simulate_completion(float(rng.uniform(0.5, 4.5)), 1.0, seed, style=style)


class TestAgreesWithEarlierPatterns:
    def _matches(self, pattern, text):
        return [(m.span(), m.groups()) for m in pattern.finditer(text)]

    def _assert_agree(self, text):
        for name, old in OLD_PATTERNS.items():
            assert self._matches(NEW_PATTERNS[name], text) == self._matches(old, text), name

    def test_fixtures(self):
        for path in sorted(FIXTURE_DIR.glob("*.txt")):
            self._assert_agree(path.read_text())

    def test_seeded_mock_reports(self):
        for text in _mock_reports():
            self._assert_agree(text)

    @pytest.mark.parametrize("text", HAND_REPORTS)
    def test_hand_reports(self, text):
        self._assert_agree(text)
