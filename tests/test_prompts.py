"""Tests for prompt construction and few-shot exemplar selection."""
import numpy as np
import pytest

from refscore.corpus import load_fewshot_pool
from refscore.prompts import (
    ABSTRACT_MARKER,
    EXEMPLAR_SEPARATOR,
    SYSTEM_PROMPT_PREFIX,
    ZERO_SHOT_PREFIX,
    FewShotSelection,
    Message,
    MessageSequence,
    SystemPromptTemplate,
    build_few_shot_user,
    build_zero_shot_user,
    compose_messages,
    exemplar_block,
    select_fewshot,
)

from conftest import make_article, make_set, write_jsonl


@pytest.fixture
def pool(tmp_path, pool_rows):
    path = write_jsonl(tmp_path / "pool.jsonl", pool_rows)
    return load_fewshot_pool(path, make_set(n=2, uoas=(1, 2)))


@pytest.fixture
def system():
    return SystemPromptTemplate(
        "You are an academic expert asked to judge article quality on the "
        "four-star scale."
    )


class TestZeroShot:
    def test_exact_bytes(self):
        art = make_article(0, title="A Title", abstract="Body text.")
        assert build_zero_shot_user(art) == (
            "Score this article:\nA Title\nAbstract\nBody text."
        )

    def test_multi_line_title_kept_verbatim(self):
        art = make_article(
            0, title="Line one:\nline two", abstract="Some body."
        )
        prompt = build_zero_shot_user(art)
        assert "Line one:\nline two\nAbstract\n" in prompt

    def test_round_trip_recovers_fields(self):
        # scaffolding is fixed, so stripping it returns the inputs
        rng = np.random.default_rng(0)
        words = ["alpha", "beta\n", "gamma:", "*", "###", "Abstract"]
        for _ in range(50):
            title = "".join(
                words[int(rng.integers(len(words)))] for _ in range(4)
            ) or "t"
            abstract = "".join(
                words[int(rng.integers(len(words)))] for _ in range(8)
            ) or "a"
            art = make_article(0, title=title, abstract=abstract)
            prompt = build_zero_shot_user(art)
            assert prompt == ZERO_SHOT_PREFIX + title + ABSTRACT_MARKER + abstract
            rest = prompt[len(ZERO_SHOT_PREFIX):]
            assert rest[: len(title)] == title
            assert rest[len(title) + len(ABSTRACT_MARKER):] == abstract

    def test_scaffolding_is_thirty_bytes(self):
        assert len(ZERO_SHOT_PREFIX.encode()) == 20
        assert len(ABSTRACT_MARKER.encode()) == 10
        art = make_article(0, title="xy", abstract="z")
        assert len(build_zero_shot_user(art).encode()) == 2 + 1 + 30

    def test_length_law(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            title = "t" * int(rng.integers(1, 200))
            abstract = "a" * int(rng.integers(1, 2000))
            art = make_article(0, title=title, abstract=abstract)
            assert len(build_zero_shot_user(art)) == len(title) + len(abstract) + 30

    def test_empty_fields_rejected(self):
        art = make_article(0, abstract="")
        with pytest.raises(ValueError, match="title or abstract"):
            build_zero_shot_user(art)


class TestSelectFewshot:
    def test_selection_shape(self, pool):
        art = make_article(0, uoa=1)
        sel = select_fewshot(art, pool, seed=0, call_index=0)
        assert tuple(ex.star for ex in sel.exemplars) == (1, 2, 3, 4)
        assert {ex.article.uoa for ex in sel.exemplars} == {1}

    def test_deterministic_in_seed_and_call(self, pool):
        art = make_article(0, uoa=2)
        a = select_fewshot(art, pool, seed=5, call_index=3)
        b = select_fewshot(art, pool, seed=5, call_index=3)
        assert [ex.article.id for ex in a.exemplars] == [
            ex.article.id for ex in b.exemplars
        ]

    def test_call_index_changes_draws(self, pool):
        art = make_article(0, uoa=1)
        picks = {
            tuple(ex.article.id for ex in select_fewshot(art, pool, 0, k).exemplars)
            for k in range(16)
        }
        assert len(picks) > 1

    def test_both_exemplars_of_each_cell_appear(self, pool):
        # 200 fresh call indices cover both members of every cell
        art = make_article(0, uoa=1)
        seen: set[str] = set()
        for k in range(200):
            sel = select_fewshot(art, pool, seed=1, call_index=k)
            seen.update(ex.article.id for ex in sel.exemplars)
        expected = {
            f"ex-u1-s{star}-{copy}" for star in (1, 2, 3, 4) for copy in (0, 1)
        }
        assert seen == expected

    def test_uoa_missing_from_pool(self, pool):
        art = make_article(0, uoa=3)
        aset = make_set(n=1, uoas=(3,))
        assert art.uoa in {a.uoa for a in aset}
        with pytest.raises(ValueError, match="uoa 3"):
            select_fewshot(art, pool, seed=0, call_index=0)

    def test_selection_invariants_enforced(self, pool):
        good = select_fewshot(make_article(0, uoa=1), pool, 0, 0).exemplars
        with pytest.raises(ValueError, match="stars"):
            FewShotSelection((good[0], good[0], good[2], good[3]), 0, 0)


class TestFewShotPrompt:
    def test_structure(self, pool):
        art = make_article(0, uoa=1, title="Target", abstract="Target body.")
        sel = select_fewshot(art, pool, seed=0, call_index=0)
        prompt = build_few_shot_user(art, sel)
        assert prompt.count(EXEMPLAR_SEPARATOR) == 4
        # star labels appear once each, ascending
        positions = [prompt.index(f"This article scores {s}*:\n") for s in (1, 2, 3, 4)]
        assert positions == sorted(positions)

    def test_ends_with_zero_shot_block(self, pool):
        art = make_article(0, uoa=1, title="Target", abstract="Target body.")
        sel = select_fewshot(art, pool, seed=0, call_index=0)
        prompt = build_few_shot_user(art, sel)
        assert prompt.endswith(build_zero_shot_user(art))

    def test_is_exact_concatenation_of_blocks(self, pool):
        art = make_article(0, uoa=2)
        sel = select_fewshot(art, pool, seed=2, call_index=7)
        prompt = build_few_shot_user(art, sel)
        expected = "".join(
            exemplar_block(ex) for ex in sel.exemplars
        ) + build_zero_shot_user(art)
        assert prompt == expected

    def test_exemplar_block_bytes(self):
        from refscore.corpus import ExemplarArticle
        ex = ExemplarArticle(
            make_article(0, title="Ex Title", abstract="Ex body."), star=2
        )
        assert exemplar_block(ex) == (
            "This article scores 2*:\nEx Title\nAbstract\nEx body.\n###\n"
        )


class TestSystemPromptTemplate:
    def test_required_prefix(self):
        with pytest.raises(ValueError, match="must start"):
            SystemPromptTemplate("Hello, judge articles please")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SystemPromptTemplate("")

    def test_from_file(self, tmp_path, system):
        path = tmp_path / "system.txt"
        path.write_text(system.text)
        assert SystemPromptTemplate.from_file(path).text == system.text


class TestComposeMessages:
    def test_system_role_supported(self, system):
        seq = compose_messages(system, "user text", supports_system_role=True)
        assert [m.role for m in seq] == ["system", "user"]
        assert seq.messages[0].content == system.text
        assert seq.messages[-1].content == "user text"

    def test_system_role_folded_into_user(self, system):
        seq = compose_messages(system, "user text", supports_system_role=False)
        assert [m.role for m in seq] == ["user"]
        assert seq.messages[-1].content == f"{system.text}\nuser text"

    def test_sequence_validation(self):
        with pytest.raises(ValueError, match="exactly one user"):
            MessageSequence((Message("system", "x"),))
        with pytest.raises(ValueError, match="come first"):
            MessageSequence((Message("user", "x"), Message("system", "y")))
        with pytest.raises(ValueError, match="role"):
            Message("tool", "x")
