"""Acceptance gate: nine end-to-end guarantees, each with a wall-clock budget.

Every test covers one externally stated property of the package, from prompt
byte layout through full-pipeline determinism, and prints a single PASS or
FAIL line (visible under ``pytest -s``). The budgets are deliberately loose;
they exist to catch pathological slowdowns, not to benchmark.
"""
import json
import math
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress
from pathlib import Path

import numpy as np

from refscore.cli import main as cli_main
from refscore.corpus import Article, ExemplarArticle, FewShotPool
from refscore.extract import FLAG_MULTI, analyze_report
from refscore.fusion import best_single, cv_fusion, de_optimize, fused_scores, mean_fusion
from refscore.gateway import MOCK_STYLES, simulate_completion
from refscore.prompts import (
    ABSTRACT_MARKER,
    ZERO_SHOT_PREFIX,
    build_few_shot_user,
    build_zero_shot_user,
    exemplar_block,
    select_fewshot,
)
from refscore.stats import ScoreCell, ScoreMatrix, binomial_tail, bootstrap_ci, spearman
from refscore.synth import make_synthetic_corpus
from refscore.util import seed_int
from refscore.violin import violin_summary
from refscore.wata import DIRECTION_A, DIRECTION_B, TokenizedDoc, compare

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "reports"


@contextmanager
def criterion(name, budget_s):
    """Print one PASS/FAIL line for the enclosed block and enforce its budget."""
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}  ({time.monotonic() - t0:.2f}s)")
        raise
    elapsed = time.monotonic() - t0
    if elapsed >= budget_s:
        print(f"FAIL  {name}  (budget {budget_s:.0f}s exceeded: {elapsed:.2f}s)")
        raise AssertionError(f"{name} took {elapsed:.2f}s, budget {budget_s:.0f}s")
    print(f"PASS  {name}  ({elapsed:.2f}s, budget {budget_s:.0f}s)")


def _fixture_articles(n=50, seed=0):
    rng = np.random.default_rng(seed)
    words = ("rank", "cohort", "trial", "immune", "policy", "graph", "cell", "survey")
    articles = []
    for i in range(n):
        title_words = [words[int(k)] for k in rng.integers(len(words), size=4)]
        body_words = [words[int(k)] for k in rng.integers(len(words), size=30)]
        articles.append(
            Article(
                id=f"acc-{i:03d}",
                uoa=1 + i % 4,
                title=" ".join(title_words).title() + f" {i}",
                abstract=" ".join(body_words) + ".",
                doi="10.1/acc",
            )
        )
    return articles


def _acceptance_pool(uoas=(1, 2, 3, 4)):
    exemplars = []
    for uoa in uoas:
        for star in (1, 2, 3, 4):
            for copy in (0, 1):
                art = Article(
                    id=f"pool-u{uoa}-s{star}-{copy}",
                    uoa=uoa,
                    title=f"Worked example {star} star ({copy}) unit {uoa}",
                    abstract=f"Exemplar abstract at level {star}, copy {copy}.",
                    doi="10.1/pool",
                )
                exemplars.append(ExemplarArticle(article=art, star=star))
    return FewShotPool(exemplars)


def test_criterion_1_prompt_byte_exactness():
    with criterion("1 prompt byte-exactness", 1.0):
        pool = _acceptance_pool()
        for idx, art in enumerate(_fixture_articles(n=50)):
            zero = build_zero_shot_user(art)
            assert zero == f"Score this article:\n{art.title}\nAbstract\n{art.abstract}"
            assert zero == ZERO_SHOT_PREFIX + art.title + ABSTRACT_MARKER + art.abstract

            selection = select_fewshot(art, pool, seed=17, call_index=idx)
            few = build_few_shot_user(art, selection)
            assert [ex.star for ex in selection.exemplars] == [1, 2, 3, 4]
            assert few.count("###\n") == 4
            positions = []
            for star in (1, 2, 3, 4):
                label = f"This article scores {star}*:"
                assert few.count(label) == 1
                positions.append(few.index(label))
            assert positions == sorted(positions)
            assert few.endswith(zero)
            blocks = "".join(exemplar_block(ex) for ex in selection.exemplars)
            assert few == blocks + zero


def test_criterion_2_parser_conformance():
    with criterion("2 parser conformance + zero-noise recovery", 5.0):
        expected = json.loads((FIXTURE_DIR / "expected.json").read_text())
        stems = {p.stem for p in FIXTURE_DIR.glob("*.txt")}
        assert stems == set(expected)
        for stem in sorted(expected):
            want = expected[stem]
            got = analyze_report((FIXTURE_DIR / f"{stem}.txt").read_text())
            assert (got.sections.thinking != "") == want["thinking"], stem
            assert got.parsed.overall == want["overall"], stem
            assert got.parsed.originality == want["originality"], stem
            assert got.parsed.significance == want["significance"], stem
            assert got.parsed.rigour == want["rigour"], stem
            assert sorted(got.parsed.flags) == want["flags"], stem
            if want["effective"] is None:
                assert got.effective is None, stem
            else:
                assert got.effective is not None, stem
                assert abs(got.effective - want["effective"]) < 1e-12, stem

        # 200 zero-noise mock reports across all four styles; the three
        # parseable styles must recover the embedded score exactly and the
        # confusion style must always be flagged.
        half_grid = [1.0 + 0.5 * k for k in range(7)]
        count = 0
        for style_idx, style in enumerate(MOCK_STYLES):
            for rep in range(50):
                latent = half_grid[(rep + style_idx) % len(half_grid)]
                text = simulate_completion(
                    latent, 0.0, seed_int(2, "accept", style, str(rep)), style
                )
                analysis = analyze_report(text)
                if style == "multi-article":
                    assert analysis.multi_article
                    assert FLAG_MULTI in analysis.parsed.flags
                    assert analysis.effective is None
                else:
                    assert analysis.effective == latent, (style, rep)
                count += 1
        assert count == 200


def _rank_oracle(values):
    # mid-rank by direct counting: smaller elements, plus half of the ties
    values = np.asarray(values, dtype=float)
    out = np.empty(len(values))
    for i, v in enumerate(values):
        smaller = np.sum(values < v)
        ties = np.sum(values == v)
        out[i] = smaller + (ties + 1) / 2.0
    return out


def test_criterion_3_spearman_oracle_equivalence():
    with criterion("3 Spearman vs brute-force oracle (1000 vectors)", 10.0):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(3, 51))
            if rng.random() < 0.5:
                x = rng.integers(1, 5, size=n).astype(float)
                y = rng.integers(1, 5, size=n).astype(float)
            else:
                x = np.round(rng.normal(size=n), 1)
                y = np.round(x + rng.normal(size=n), 1)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            rx, ry = _rank_oracle(x), _rank_oracle(y)
            oracle = float(np.corrcoef(rx, ry)[0, 1])
            assert abs(spearman(x, y) - oracle) < 1e-12
            checked += 1


def test_criterion_4_exact_binomial_values():
    with criterion("4 exact binomial tail values", 1.0):
        assert binomial_tail(6, 6) == 0.015625
        assert binomial_tail(6, 6) == float(Fraction(1, 64))
        assert binomial_tail(9, 10) == float(Fraction(11, 1024))
        assert round(binomial_tail(9, 10), 6) == 0.010742
        assert round(binomial_tail(6, 6), 3) == 0.016
        assert round(binomial_tail(9, 10), 3) == 0.011


def test_criterion_5_bootstrap_degenerate_and_coverage():
    with criterion("5 bootstrap CI: monotone pair + coverage study", 300.0):
        x = np.arange(20, dtype=float)
        assert bootstrap_ci(x, x**3, b_reps=500, seed=5) == (1.0, 1.0)

        # bivariate normal with Pearson 0.5 has population rank correlation
        # (6/pi) asin(1/4); check 95% CI coverage over 200 independent draws
        target = 6.0 / math.pi * math.asin(0.25)
        rng = np.random.default_rng(55)
        hits = 0
        draws = 200
        for d in range(draws):
            g = rng.normal(size=(2, 500))
            xs = g[0]
            ys = 0.5 * g[0] + math.sqrt(0.75) * g[1]
            lo, hi = bootstrap_ci(xs, ys, b_reps=1000, seed=1000 + d)
            if lo <= target <= hi:
                hits += 1
        coverage = hits / draws
        assert 0.92 <= coverage <= 0.98, f"coverage {coverage:.3f}"


def test_criterion_6_mean_of_five_beats_single():
    with criterion("6 mean-of-5 beats single iteration (100 trials)", 120.0):
        parseable = [s for s in MOCK_STYLES if s != "multi-article"]
        wins = 0
        for trial in range(100):
            rng = np.random.default_rng(600 + trial)
            latents = rng.uniform(1.0, 4.0, size=200)
            singles, means = [], []
            for a, latent in enumerate(latents):
                style = parseable[a % len(parseable)]
                scores = []
                for it in range(1, 6):
                    text = simulate_completion(
                        float(latent), 0.8,
                        seed_int(trial, "avg", str(a), str(it)), style,
                    )
                    eff = analyze_report(text).effective
                    assert eff is not None
                    scores.append(eff)
                singles.append(scores[0])
                means.append(float(np.mean(scores)))
            rho_single = spearman(singles, latents)
            rho_mean = spearman(means, latents)
            if rho_mean > rho_single:
                wins += 1
        assert wins >= 90, f"mean-of-5 won only {wins}/100 trials"


def test_criterion_7_fusion_properties():
    with criterion("7 fusion beats best single + scaling invariance", 180.0):
        # two noisy reads of one latent quality, so the columns correlate the
        # way two models scoring the same articles do; the equal-weight mean
        # then beats either column alone by a stable margin
        rng = np.random.default_rng(77)
        ids = [f"f{i:04d}" for i in range(500)]
        quality = rng.uniform(1.0, 4.0, size=500)
        a = np.clip(quality + rng.normal(0.0, 0.85, size=500), 1.0, 4.0)
        b = np.clip(quality + rng.normal(0.0, 0.85, size=500), 1.0, 4.0)
        gold = {
            i: float(v)
            for i, v in zip(ids, 0.7 * a + 0.3 * b + rng.normal(0.0, 0.15, size=500))
        }
        matrix = ScoreMatrix()
        matrix.add_column(("model-a", "zero"), {i: ScoreCell(float(v), 5) for i, v in zip(ids, a)})
        matrix.add_column(("model-b", "zero"), {i: ScoreCell(float(v), 5) for i, v in zip(ids, b)})

        _, best_rho = best_single(matrix, gold)
        cv = cv_fusion(matrix, gold, folds=10, seed=7)
        assert cv.mean_rho >= best_rho, (cv.mean_rho, best_rho)

        fused_mean = mean_fusion(matrix)
        pairs = [(fused_mean[i], gold[i]) for i in ids]
        mean_rho = spearman([p[0] for p in pairs], [p[1] for p in pairs])
        assert mean_rho >= best_rho - 0.01, (mean_rho, best_rho)

        # scaling all weights by a power of two is exact in floats, so the
        # fused ranking and its correlation must not move at all
        weights = de_optimize(matrix, gold, seed=7)
        scaled = type(weights)(
            columns=weights.columns,
            weights=tuple(w * 8.0 for w in weights.weights),
            objective=weights.objective,
            history=weights.history,
        )
        f1 = fused_scores(matrix, weights)
        f8 = fused_scores(matrix, scaled)
        r1 = spearman([f1[i] for i in ids], [gold[i] for i in ids])
        r8 = spearman([f8[i] for i in ids], [gold[i] for i in ids])
        assert r1 == r8
        for i in ids:
            assert f8[i] == f1[i] * 8.0


def _wata_corpora(rng, planted, nulls, n_docs=200, rate_a=0.6, rate_b=0.15, rate_null=0.3):
    # one vector draw per term list takes the same uniforms, in the same
    # order, as one scalar draw per term
    def draw(terms, rate):
        return set(compress(terms, rng.random(len(terms)) < rate))

    docs_a, docs_b = [], []
    for d in range(n_docs):
        terms_a = draw(planted, rate_a) | draw(nulls, rate_null)
        terms_b = draw(planted, rate_b) | draw(nulls, rate_null)
        docs_a.append(TokenizedDoc(f"a{d:03d}", frozenset(terms_a)))
        docs_b.append(TokenizedDoc(f"b{d:03d}", frozenset(terms_b)))
    return docs_a, docs_b


def test_criterion_8_wata_planted_terms():
    with criterion("8 WATA planted-term recovery + FDR", 60.0):
        planted = [f"planted{i:02d}" for i in range(20)]
        nulls = [f"null{i:03d}" for i in range(980)]

        rng = np.random.default_rng(88)
        docs_a, docs_b = _wata_corpora(rng, planted, nulls)
        stats = compare(docs_a, docs_b)
        found = {s.term: s for s in stats}
        for term in planted:
            assert term in found, term
            assert found[term].q <= 0.05
            assert found[term].direction == DIRECTION_A

        # exact symmetry under swapping the corpora
        swapped = {s.term: s for s in compare(docs_b, docs_a)}
        assert set(swapped) == set(found)
        for term, stat in found.items():
            mirror = swapped[term]
            assert mirror.chi2 == stat.chi2 and mirror.p == stat.p and mirror.q == stat.q
            assert mirror.df_a == stat.df_b and mirror.df_b == stat.df_a
            assert mirror.direction == (
                DIRECTION_B if stat.direction == DIRECTION_A else DIRECTION_A
            )

        # average share of false discoveries among the 980 equal-rate terms
        fdr_sum = 0.0
        for trial in range(50):
            trng = np.random.default_rng(8800 + trial)
            ta, tb = _wata_corpora(trng, planted, nulls)
            results = compare(ta, tb)
            false_hits = sum(1 for s in results if s.term.startswith("null"))
            fdr_sum += false_hits / max(len(results), 1)
        assert fdr_sum / 50 <= 0.10, f"mean FDR {fdr_sum / 50:.3f}"


def _acceptance_config(dir_path, corpus):
    raw = {
        "schema_version": 1,
        "articles": corpus["articles"].name,
        "golds": [
            {"kind": "departmental_proxy", "path": corpus["gold_proxy"].name},
            {"kind": "individual", "path": corpus["gold_individual"].name},
        ],
        "fewshot_pool": corpus["fewshot_pool"].name,
        "system_prompt": corpus["system_prompt"].name,
        "models": [{"name": "mock-a"}, {"name": "mock-b"}],
        "strategies": ["zero", "few"],
        "iterations": 2,
        "concurrency": 2,
        "seed": 19,
        "bootstrap_reps": 200,
        "cv_folds": 2,
        "de": {"population": 12, "generations": 25},
        "mock": {
            "enabled": True,
            "noise_sd": 0.3,
            "styles": {"mock-a": "plain", "mock-b": "reasoning"},
        },
        "out_dir": "out",
    }
    path = dir_path / "config.json"
    path.write_text(json.dumps(raw, indent=1))
    return path


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion("9 end-to-end mock determinism", 120.0):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1, 2), per_uoa=18, seed=9)
        cfg_path = _acceptance_config(tmp_path, corpus)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli_main(["all", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli_main(["all", "--config", str(cfg_path), "--out", str(out2)]) == 0

        tree1, tree2 = _tree_bytes(out1), _tree_bytes(out2)
        assert set(tree1) == set(tree2)
        for rel in sorted(tree1):
            assert tree1[rel] == tree2[rel], f"{rel} differs between runs"

        for kind in ("departmental_proxy", "individual"):
            header = (out1 / f"fusion_{kind}.csv").read_text().splitlines()[0]
            assert header == "uoa,mean,median,best-single,rank-average,cv-mean"

        svgs = sorted((out1 / "violins").glob("*.svg"))
        assert svgs
        for svg in svgs:
            ET.fromstring(svg.read_text())

        # the proxy gold carries non-integer scores; grouping must drop them
        proxy_rows = (tmp_path / corpus["gold_proxy"].name).read_text().splitlines()[1:]
        proxy = {line.split(",")[0]: float(line.split(",")[1]) for line in proxy_rows}
        non_integer = [v for v in proxy.values() if v != round(v)]
        assert non_integer
        scores = {i: 2.5 for i in proxy}
        summary = violin_summary(scores, proxy)
        assert summary.discarded_non_integer == len(non_integer)
