"""Property-based contracts for the kernels and file formats that later
rewrites promise to keep bit for bit.

Every property runs under one settings profile: derandomized, with no
example database, so a run draws the same examples on every machine and
leaves no files behind.
"""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import rankdata, spearmanr

from refscore.corpus import GOLD_HEADER, INDIVIDUAL, SCORE_MAX, SCORE_MIN, load_gold_csv
from refscore.extract import analyze_report
from refscore.gateway import STATUS_FAILED, STATUS_OK, ModelConfig, RawRecord
from refscore.harness import (
    ExperimentConfig, ParsedRow, _read_jsonl, _write_jsonl, _write_matrix, load_config,
    read_matrix,
)
from refscore.stats import ScoreCell, ScoreMatrix, midranks, spearman
from refscore.util import substream, substreams, write_csv
from refscore.wata import kwic, tokenize

from test_harness import write_config

settings.register_profile("contracts", derandomize=True, database=None, deadline=None)
settings.load_profile("contracts")

# fewer examples where each writes and reads a file back
FEW = settings(max_examples=40)
MANY = settings(max_examples=150)

finite = st.floats(allow_nan=False, allow_infinity=False)
stars = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
# all of Unicode but the surrogates, which no file can hold
text = st.text(st.characters(exclude_categories=("Cs",)))
names = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=12)


@MANY
@given(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1e300, -1e300]), min_size=1))
def test_midranks_equals_average_rankdata(values):
    assert np.array_equal(midranks(values), rankdata(values, method="average"))


@MANY
@given(st.lists(st.tuples(stars, stars), min_size=3, max_size=40))
def test_spearman_equals_spearmanr(pairs):
    x, y = (np.array(v) for v in zip(*pairs))
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        with pytest.raises(ValueError):
            spearman(x, y)
        return
    assert spearman(x, y) == pytest.approx(spearmanr(x, y)[0], abs=1e-12)


@MANY
@given(text)
def test_every_term_has_a_kwic_line(doc):
    for term in tokenize("d", doc).terms:
        lines = kwic(term, [("d", doc)], k=1)
        assert len(lines) == 1 and lines[0].term.casefold() == term, term


def check_analysis(report):
    effective = analyze_report(report).effective
    assert effective is None or SCORE_MIN <= effective <= SCORE_MAX


@MANY
@given(text)
def test_analyze_report_is_total_on_any_text(report):
    check_analysis(report)


# the pieces the report patterns look for, to be strung together with noise
SCORE_PIECES = st.sampled_from([
    "Score:", "score :", "Overall score: ", "**", "*", "_", " ", "\n", "(", ")", ":", "-", "/4",
    "3*", "2.5", "4", "0", "7.25", "12", "(Internationally Excellent)", " (world leading)",
    "Originality", "Significance", "Rigour", "Rigor", "Article 1", "Article 2: ", "article 3 -",
    "<think>", "</think>", "scores",
])


@MANY
@given(st.lists(SCORE_PIECES | st.text(max_size=3), max_size=30).map("".join))
def test_analyze_report_is_total_on_score_shaped_text(report):
    check_analysis(report)


path_parts = st.integers(min_value=0, max_value=2**64 - 1) | st.text(max_size=6)


@MANY
@given(st.lists(st.lists(path_parts, min_size=1, max_size=4), max_size=8))
def test_substreams_equals_substream(paths):
    batch = list(substreams(paths))
    assert len(batch) == len(paths)
    for path, gen in zip(paths, batch):
        assert gen.bit_generator.state == substream(*path).bit_generator.state


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
CONFIG_KEYS = [
    "articles", "golds", "fewshot_pool", "system_prompt", "models", "strategies", "iterations",
    "concurrency", "seed", "bootstrap_reps", "alpha", "cv_folds", "de", "mock", "out_dir",
    "cache_dir", "sample_per_uoa", "wata", "schema_version",
]


def test_load_config_raises_only_value_error(tmp_path):
    corpus = {
        name: tmp_path / name
        for name in ("articles", "gold_proxy", "gold_individual", "fewshot_pool", "system_prompt")
    }
    base = json.loads(write_config(tmp_path, corpus).read_text(encoding="utf-8"))
    path = tmp_path / "generated.json"

    @MANY
    @given(st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=6), json_values, max_size=4))
    def check(changes):
        path.write_text(json.dumps({**base, **changes}), encoding="utf-8")
        try:
            assert isinstance(load_config(path), ExperimentConfig)
        except ValueError:
            pass

    check()


records = st.builds(
    RawRecord,
    article_id=names, model=names, strategy=names, iteration=st.integers(1, 10),
    text=st.text(min_size=1), latency_ms=finite, status=st.just(STATUS_OK),
    attempts=st.integers(0, 5),
) | st.builds(
    RawRecord,
    article_id=names, model=names, strategy=names, iteration=st.integers(1, 10),
    text=st.just(""), latency_ms=finite, status=st.just(STATUS_FAILED),
    attempts=st.integers(0, 5),
)
parsed_rows = st.builds(
    ParsedRow,
    article_id=names, model=names, strategy=names, iteration=st.integers(1, 10),
    status=st.sampled_from([STATUS_OK, STATUS_FAILED]),
    effective=st.none() | stars, overall=st.none() | finite,
    originality=st.none() | finite, significance=st.none() | finite, rigour=st.none() | finite,
    flags=st.lists(names, max_size=3).map(tuple),
)


@FEW
@given(st.lists(records, max_size=5), st.lists(parsed_rows, max_size=5))
def test_jsonl_rows_round_trip(raw, parsed):
    with tempfile.TemporaryDirectory() as tmp:
        for rows, cls in ((raw, RawRecord), (parsed, ParsedRow)):
            path = Path(tmp) / "rows.jsonl"
            _write_jsonl(path, rows)
            assert _read_jsonl(path, cls) == rows


# the pinned examples hold a bare carriage return, which must stay inside its row
@FEW
@given(st.dictionaries(names, st.floats(SCORE_MIN, SCORE_MAX), max_size=8))
@example({"\r": 1.0})
@example({"0\r": 1.0})
def test_gold_csv_round_trips(scores):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gold.csv"
        write_csv(path, GOLD_HEADER, scores.items())
        assert load_gold_csv(path, INDIVIDUAL).scores == scores


cells = st.builds(ScoreCell, score=st.floats(SCORE_MIN, SCORE_MAX), effective_k=st.integers(1, 5))


@FEW
@given(st.dictionaries(st.tuples(names, names), st.dictionaries(names, cells, min_size=1, max_size=4), max_size=4))
@example({("0", "\r"): {"0": ScoreCell(1.0, 1)}})
def test_matrix_csv_round_trips(columns):
    matrix = ScoreMatrix()
    for key, column in columns.items():
        matrix.add_column(key, column)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig(
            articles=Path(tmp) / "a.jsonl", out_dir=Path(tmp), models=[ModelConfig(name="m")],
            strategies=("zero",), iterations=5,
        )
        _write_matrix(cfg, matrix)
        assert read_matrix(cfg).cells == matrix.cells
