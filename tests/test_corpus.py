"""Tests for article ingestion, filtering, sampling and gold standards."""
import pytest

from refscore.corpus import (
    INDIVIDUAL,
    PROXY,
    Article,
    ArticleSet,
    FewShotPool,
    GoldStandard,
    filter_eligible,
    load_articles,
    load_fewshot_pool,
    load_gold_csv,
    sample_per_uoa,
)

from conftest import make_article, make_set, write_jsonl


def article_row(i, uoa=1, **overrides):
    row = {
        "id": f"u{uoa}-a{i:03d}",
        "uoa": uoa,
        "doi": "10.1/x",
        "title": f"Study {i}",
        "abstract": f"Findings of study {i} summarised at length.",
    }
    row.update(overrides)
    return row


class TestArticleSet:
    def test_duplicate_id_rejected(self):
        art = make_article(1)
        with pytest.raises(ValueError, match="duplicate"):
            ArticleSet([art, art])

    def test_empty_title_rejected(self):
        with pytest.raises(ValueError, match="title"):
            ArticleSet([make_article(1, title="")])

    def test_unknown_uoa_rejected(self):
        with pytest.raises(ValueError, match="uoa 9"):
            ArticleSet([make_article(1, uoa=9)], units=(1, 2))

    def test_membership_and_grouping(self):
        aset = make_set(n=3, uoas=(1, 2))
        assert len(aset) == 6
        assert "u1-a000" in aset
        assert "u3-a000" not in aset
        grouped = aset.by_uoa()
        assert sorted(grouped) == [1, 2]
        assert all(len(v) == 3 for v in grouped.values())

    def test_replace_keeps_filter_flag(self):
        aset = ArticleSet([make_article(1)], eligibility_filtered=True)
        assert aset.replace([make_article(2)]).eligibility_filtered


class TestLoadArticles:
    def test_empty_file(self, tmp_path):
        path = write_jsonl(tmp_path / "arts.jsonl", [])
        assert len(load_articles(path)) == 0

    def test_valid_records_round_trip(self, tmp_path):
        rows = [article_row(i) for i in range(3)]
        rows[1]["doi"] = None
        rows[2]["abstract"] = None
        path = write_jsonl(tmp_path / "arts.jsonl", rows)
        aset = load_articles(path)
        assert aset.ids() == [r["id"] for r in rows]
        assert aset.by_id["u1-a001"].doi is None
        assert aset.by_id["u1-a002"].abstract == ""

    def test_duplicate_id_names_both_lines(self, tmp_path):
        rows = [article_row(i) for i in range(5)]
        rows[4]["id"] = rows[1]["id"]
        path = write_jsonl(tmp_path / "arts.jsonl", rows)
        with pytest.raises(ValueError, match=r"lines 2 and 5"):
            load_articles(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "arts.jsonl"
        path.write_text(
            '{"id": "a", "uoa": 1, "title": "t", "abstract": "x"}\n{broken\n'
        )
        with pytest.raises(ValueError, match=r"line 2"):
            load_articles(path)

    def test_missing_key_names_line(self, tmp_path):
        rows = [article_row(0), {"id": "b", "uoa": 1, "title": "t"}]
        path = write_jsonl(tmp_path / "arts.jsonl", rows)
        with pytest.raises(ValueError, match=r"line 2.*abstract"):
            load_articles(path)

    def test_bad_uoa_type(self, tmp_path):
        path = write_jsonl(
            tmp_path / "arts.jsonl", [article_row(0, uoa="one")]
        )
        with pytest.raises(ValueError, match="uoa must be an integer"):
            load_articles(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "arts.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_articles(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "arts.jsonl"
        import json as _json
        path.write_text(
            _json.dumps(article_row(0)) + "\n\n" + _json.dumps(article_row(1)) + "\n"
        )
        assert len(load_articles(path)) == 2


class TestFilterEligible:
    def test_empty_set_passes_through(self):
        filtered = filter_eligible(ArticleSet([]))
        assert len(filtered) == 0
        assert filtered.eligibility_filtered

    def test_shortest_decile_cut(self):
        # 100 abstracts of lengths 1..100: the strictly shortest 10 go
        arts = [
            make_article(i, abstract="x" * (i + 1)) for i in range(100)
        ]
        filtered = filter_eligible(ArticleSet(arts))
        assert len(filtered) == 90
        assert min(len(a.abstract) for a in filtered) == 11

    def test_ties_at_threshold_are_retained(self):
        arts = [make_article(0, abstract="abc")]
        arts += [make_article(i, abstract="y" * 5) for i in range(1, 10)]
        filtered = filter_eligible(ArticleSet(arts))
        # cut rank 1 of 10 lands on a tied length; every tie survives
        assert len(filtered) == 9
        assert "u1-a000" not in filtered

    def test_missing_doi_removed_before_the_cut(self):
        arts = [make_article(i, abstract="z" * 50) for i in range(9)]
        arts.append(make_article(9, abstract="z" * 500, doi=None))
        filtered = filter_eligible(ArticleSet(arts))
        assert "u1-a009" not in filtered
        assert len(filtered) == 9

    def test_empty_abstract_removed(self):
        arts = [make_article(i) for i in range(5)]
        arts.append(make_article(5, abstract="   "))
        filtered = filter_eligible(ArticleSet(arts))
        assert "u1-a005" not in filtered

    def test_idempotent(self):
        aset = ArticleSet(
            [make_article(i, abstract="w" * (i + 1)) for i in range(40)]
        )
        once = filter_eligible(aset)
        twice = filter_eligible(once)
        assert twice.ids() == once.ids()
        assert twice is once

    def test_cut_is_per_uoa(self):
        # unit 2's long abstracts must not raise unit 1's threshold
        arts = [make_article(i, uoa=1, abstract="a" * (10 + i)) for i in range(20)]
        arts += [make_article(i, uoa=2, abstract="b" * (1000 + i)) for i in range(20)]
        filtered = filter_eligible(ArticleSet(arts))
        grouped = filtered.by_uoa()
        assert len(grouped[1]) == 18
        assert len(grouped[2]) == 18


class TestSamplePerUoa:
    def test_small_uoa_kept_whole(self):
        aset = make_set(n=5, uoas=(1, 2))
        sampled = sample_per_uoa(aset, 10, seed=0)
        assert sampled.ids() == aset.ids()

    def test_sample_sizes_and_subset(self):
        aset = make_set(n=30, uoas=(1, 2))
        sampled = sample_per_uoa(aset, 12, seed=3)
        grouped = sampled.by_uoa()
        assert {u: len(v) for u, v in grouped.items()} == {1: 12, 2: 12}
        assert set(sampled.ids()) <= set(aset.ids())

    def test_same_seed_same_sample(self):
        aset = make_set(n=30)
        a = sample_per_uoa(aset, 10, seed=7)
        b = sample_per_uoa(aset, 10, seed=7)
        assert a.ids() == b.ids()

    def test_different_seed_usually_differs(self):
        aset = make_set(n=60, uoas=(1,))
        draws = {tuple(sample_per_uoa(aset, 5, seed=s).ids()) for s in range(8)}
        assert len(draws) > 1

    def test_input_order_preserved(self):
        aset = make_set(n=40, uoas=(1,))
        sampled = sample_per_uoa(aset, 15, seed=1)
        positions = [aset.ids().index(i) for i in sampled.ids()]
        assert positions == sorted(positions)

    def test_zero_and_negative(self):
        aset = make_set(n=4)
        assert len(sample_per_uoa(aset, 0, seed=0)) == 0
        with pytest.raises(ValueError, match="non-negative"):
            sample_per_uoa(aset, -1, seed=0)


class TestLoadGoldCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("article_id,score\na,3.5\nb,1\n")
        gold = load_gold_csv(path, INDIVIDUAL)
        assert gold.scores == {"a": 3.5, "b": 1.0}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("id,value\na,3.5\n")
        with pytest.raises(ValueError, match="header"):
            load_gold_csv(path, INDIVIDUAL)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("article_id,score\na,3.5\na,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_gold_csv(path, INDIVIDUAL)

    def test_non_numeric_score_names_row(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("article_id,score\na,3.5\nb,high\n")
        with pytest.raises(ValueError, match="row 3"):
            load_gold_csv(path, INDIVIDUAL)

    def test_unknown_article_when_set_given(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("article_id,score\nghost,3.5\n")
        with pytest.raises(ValueError, match="unknown article"):
            load_gold_csv(path, INDIVIDUAL, make_set(n=2))

    def test_out_of_range_score_rejected(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("article_id,score\na,4.5\n")
        with pytest.raises(ValueError, match=r"outside \[1.0, 4.0\]"):
            load_gold_csv(path, INDIVIDUAL)


class TestGoldStandard:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            GoldStandard("vibes", {})

    def test_len(self):
        assert len(GoldStandard(PROXY, {"a": 2.0, "b": 3.0})) == 2


class TestFewShotPool:
    def test_complete_pool_loads(self, tmp_path, pool_rows):
        path = write_jsonl(tmp_path / "pool.jsonl", pool_rows)
        pool = load_fewshot_pool(path, make_set(n=2, uoas=(1, 2)))
        assert len(pool) == 16
        assert pool.uoas == (1, 2)
        pair = pool.exemplars(1, 3)
        assert {ex.star for ex in pair} == {3}
        assert all(ex.article.uoa == 1 for ex in pair)

    def test_missing_cell_named(self, tmp_path, pool_rows):
        rows = [r for r in pool_rows if not (r["uoa"] == 2 and r["star"] == 3)]
        path = write_jsonl(tmp_path / "pool.jsonl", rows)
        with pytest.raises(ValueError, match=r"uoa 2, 3\*"):
            load_fewshot_pool(path, make_set(n=2, uoas=(1, 2)))

    def test_overfull_cell_rejected(self, tmp_path, pool_rows):
        extra = dict(pool_rows[0], id="ex-extra")
        path = write_jsonl(tmp_path / "pool.jsonl", pool_rows + [extra])
        with pytest.raises(ValueError, match="expected exactly 2"):
            load_fewshot_pool(path, make_set(n=2, uoas=(1, 2)))

    def test_overlap_with_eval_set_rejected(self, tmp_path, pool_rows):
        eval_set = make_set(n=2, uoas=(1, 2))
        rows = pool_rows + [
            dict(article_row(0), star=2)
        ]
        path = write_jsonl(tmp_path / "pool.jsonl", rows)
        with pytest.raises(ValueError, match="overlaps"):
            load_fewshot_pool(path, eval_set)

    def test_bad_star_level(self, tmp_path, pool_rows):
        rows = pool_rows + [dict(pool_rows[0], id="ex-bad", star=5)]
        path = write_jsonl(tmp_path / "pool.jsonl", rows)
        with pytest.raises(ValueError, match="star"):
            load_fewshot_pool(path, make_set(n=2, uoas=(1, 2)))

    def test_non_object_line(self, tmp_path, pool_rows):
        path = write_jsonl(tmp_path / "pool.jsonl", pool_rows + [["star", 2]])
        with pytest.raises(ValueError, match="line 17: expected a JSON object"):
            load_fewshot_pool(path, make_set(n=2, uoas=(1, 2)))

    def test_missing_cell_via_constructor(self):
        pool_arts = [
            make_article(100 + star * 2 + c, uoa=1)
            for star in (1, 2, 3) for c in (0, 1)
        ]
        from refscore.corpus import ExemplarArticle
        exemplars = [
            ExemplarArticle(a, star)
            for a, star in zip(pool_arts, (1, 1, 2, 2, 3, 3))
        ]
        with pytest.raises(ValueError, match=r"4\*"):
            FewShotPool(exemplars)
