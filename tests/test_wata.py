"""Tests for the term-containment contrast and keyword-in-context sampling."""
import unicodedata

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import chdtrc

from refscore.wata import (
    DIRECTION_A,
    DIRECTION_B,
    MIN_TERM_LENGTH,
    KwicLine,
    TermStat,
    TokenizedDoc,
    benjamini_hochberg,
    compare,
    kwic,
    tokenize,
)


def chi2_oracle(df_a, n_a, df_b, n_b):
    """Hand formula: n (ad - bc)^2 / ((a+b)(c+d)(a+c)(b+d))."""
    a, b = df_a, n_a - df_a
    c, d = df_b, n_b - df_b
    n = n_a + n_b
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 0.0
    return n * (a * d - b * c) ** 2 / denom


def make_corpus(prefix, n, term_rates, rng):
    """Synthetic docs where each term appears independently at its rate."""
    docs = []
    for i in range(n):
        terms = {t for t, rate in term_rates.items() if rng.random() < rate}
        terms.add(f"filler{i % 7}")
        docs.append(TokenizedDoc(doc_id=f"{prefix}{i}", terms=frozenset(terms)))
    return docs


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("d", "").terms == frozenset()

    def test_punctuation_and_case_folding(self):
        doc = tokenize("d", "Score: 3* (score!)")
        assert doc.terms == {"score"}

    def test_apostrophe_splits(self):
        assert tokenize("d", "Let's think").terms == {"let", "think"}

    def test_single_letter_dropped(self):
        assert tokenize("d", "a I x40 b2").terms == {"x40", "b2"}

    def test_presence_only(self):
        a = tokenize("d", "novel novel novel method")
        b = tokenize("d", "novel method")
        assert a.terms == b.terms

    def test_letters_and_digits_beyond_ascii(self):
        doc = tokenize("d", "A naïve reading of １２３ cases, snake_case")
        assert doc.terms == {"naïve", "reading", "of", "１２３", "cases", "snake", "case"}

    def test_case_folding_beyond_lowercase(self):
        # casefold, unlike lower, maps "ß" to "ss"
        assert tokenize("d", "Straße").terms == tokenize("d", "STRASSE").terms == {"strasse"}

    def test_vowel_signs_stay_inside_their_word(self):
        # each Devanagari vowel sign is a combining mark between letters
        assert tokenize("d", "हिन्दी भाषा").terms == {"हिन्दी", "भाषा"}

    def test_decomposed_accents_stay_inside_their_word(self):
        text = unicodedata.normalize("NFD", "naïve café")
        assert tokenize("d", text).terms == {"nai\u0308ve", "cafe\u0301"}

    def test_dotted_capital_i_keeps_its_word(self):
        # "İ" folds to "i" and the combining dot above, U+0307
        assert tokenize("d", "İstanbul").terms == {"i\u0307stanbul"}


class TestChiSquare:
    def test_matches_hand_formula_and_scipy(self):
        from refscore.wata import _chi2_presence
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_a = int(rng.integers(5, 60))
            n_b = int(rng.integers(5, 60))
            df_a = int(rng.integers(0, n_a + 1))
            df_b = int(rng.integers(0, n_b + 1))
            ours = _chi2_presence(df_a, n_a, df_b, n_b)
            assert ours == pytest.approx(chi2_oracle(df_a, n_a, df_b, n_b), abs=1e-10)
            table = np.array(
                [[df_a, n_a - df_a], [df_b, n_b - df_b]]
            )
            if table.sum(axis=0).min() > 0 and table.sum(axis=1).min() > 0:
                ref = sps.chi2_contingency(table, correction=False).statistic
                assert ours == pytest.approx(ref, abs=1e-8)

    def test_zero_iff_equal_rates(self):
        from refscore.wata import _chi2_presence
        assert _chi2_presence(10, 20, 5, 10) == pytest.approx(0.0, abs=1e-12)
        assert _chi2_presence(10, 20, 4, 10) > 0.0


class TestBenjaminiHochberg:
    def bh_oracle(self, p):
        # step-up: q_(i) = min over j >= i of p_(j) * m / j
        p = np.asarray(p, dtype=float)
        m = len(p)
        order = np.argsort(p, kind="stable")
        sorted_p = p[order]
        q_sorted = np.empty(m)
        for i in range(m):
            q_sorted[i] = min(
                sorted_p[j] * m / (j + 1) for j in range(i, m)
            )
        q = np.empty(m)
        q[order] = q_sorted
        return q

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
            assert benjamini_hochberg(p) == pytest.approx(self.bh_oracle(p), abs=1e-12)

    def test_q_at_least_p(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0, 1, 50)
        q = benjamini_hochberg(p)
        assert (q >= p - 1e-15).all()
        assert (q <= 1.0).all()

    def test_monotone_in_sorted_order(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, 50)
        q = benjamini_hochberg(p)
        order = np.argsort(p)
        sorted_q = q[order]
        assert all(x <= y + 1e-15 for x, y in zip(sorted_q, sorted_q[1:]))

    def test_single_p(self):
        assert benjamini_hochberg([0.03]) == pytest.approx([0.03])

    @staticmethod
    def bh_loop(p):
        # the step-up loop benjamini_hochberg replaced, kept as the reference
        p = np.asarray(p, dtype=float)
        m = len(p)
        order = np.argsort(p, kind="stable")
        q = np.empty(m, dtype=float)
        running = 1.0
        for rank in range(m, 0, -1):
            idx = order[rank - 1]
            running = min(running, p[idx] * m / rank)
            q[idx] = running
        return q

    @pytest.mark.parametrize("p", [
        [0.01, 0.04, 0.04, 0.04, 0.2, 0.01, 0.5],
        [1.0] * 6,
        [0.03],
        [0.02, np.nan, 0.01, 0.3, np.nan, 0.04],
        [np.nan],
        [0.0, 0.0, 1e-300, 0.9999999999999999],
        [],
    ], ids=["ties", "all_ones", "single", "nan", "only_nan", "extremes", "empty"])
    def test_bit_identical_to_loop(self, p):
        assert benjamini_hochberg(p).tobytes() == self.bh_loop(p).tobytes()

    def test_bit_identical_to_loop_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            # rounding to a few digits makes ties common
            p = np.round(rng.uniform(0, 1, int(rng.integers(1, 200))), 2)
            assert benjamini_hochberg(p).tobytes() == self.bh_loop(p).tobytes()


class TestChiSquareTail:
    def test_chdtrc_is_scipy_stats_bit_for_bit(self):
        grid = np.concatenate([
            [0.0, 1e-300, 5e-324, 1e-10, 3.84, 3.841458820694124, 700.0, 1e4, np.inf],
            np.linspace(0.0, 50.0, 5001),
            np.geomspace(1e-12, 1e5, 2000),
        ])
        assert chdtrc(1, grid).tobytes() == sps.chi2.sf(grid, df=1).tobytes()

    def test_compare_p_is_scipy_stats_chi2_sf(self):
        rng = np.random.default_rng(12)
        corpus_a = make_corpus("a", 150, {"strong": 0.9, "mild": 0.45, "flat": 0.3}, rng)
        corpus_b = make_corpus("b", 150, {"strong": 0.05, "mild": 0.2, "flat": 0.3}, rng)
        stats = compare(corpus_a, corpus_b, q_threshold=1.0)
        assert len(stats) > 3
        for s in stats:
            assert s.p == float(sps.chi2.sf(s.chi2, df=1))


class TestCompare:
    def test_identical_corpora_yield_nothing(self):
        rng = np.random.default_rng(4)
        docs = make_corpus("x", 40, {"method": 0.5, "novel": 0.3}, rng)
        assert compare(docs, list(docs)) == []

    def test_planted_term_recovered(self):
        rng = np.random.default_rng(5)
        corpus_a = make_corpus("a", 120, {"weak": 0.7, "shared": 0.5}, rng)
        corpus_b = make_corpus("b", 120, {"weak": 0.1, "shared": 0.5}, rng)
        stats = compare(corpus_a, corpus_b)
        terms = {s.term: s for s in stats}
        assert "weak" in terms
        assert terms["weak"].direction == DIRECTION_A
        assert "shared" not in terms

    def test_direction_symmetry(self):
        rng = np.random.default_rng(6)
        corpus_a = make_corpus("a", 100, {"gap": 0.6}, rng)
        corpus_b = make_corpus("b", 100, {"gap": 0.15}, rng)
        forward = compare(corpus_a, corpus_b)
        backward = compare(corpus_b, corpus_a)
        fwd = {s.term: s for s in forward}
        bwd = {s.term: s for s in backward}
        assert set(fwd) == set(bwd)
        for term, stat in fwd.items():
            assert bwd[term].chi2 == pytest.approx(stat.chi2, abs=1e-12)
            assert bwd[term].p == pytest.approx(stat.p, abs=1e-12)
            assert bwd[term].direction != stat.direction

    def test_min_doc_freq_excludes_rare_terms(self):
        docs_a = [
            TokenizedDoc(f"a{i}", frozenset({"common", "rare"} if i < 2 else {"common"}))
            for i in range(20)
        ]
        docs_b = [TokenizedDoc(f"b{i}", frozenset({"common"})) for i in range(20)]
        stats = compare(docs_a, docs_b, q_threshold=1.0, min_doc_freq=5)
        assert all(s.term != "rare" for s in stats)
        stats = compare(docs_a, docs_b, q_threshold=1.0, min_doc_freq=2)
        assert any(s.term == "rare" for s in stats)

    def test_sorted_by_chi2_descending(self):
        rng = np.random.default_rng(7)
        corpus_a = make_corpus("a", 150, {"strong": 0.9, "mild": 0.45}, rng)
        corpus_b = make_corpus("b", 150, {"strong": 0.05, "mild": 0.2}, rng)
        stats = compare(corpus_a, corpus_b)
        chis = [s.chi2 for s in stats]
        assert chis == sorted(chis, reverse=True)

    def test_counts_match_inputs(self):
        rng = np.random.default_rng(8)
        corpus_a = make_corpus("a", 60, {"term": 0.8}, rng)
        corpus_b = make_corpus("b", 40, {"term": 0.1}, rng)
        stats = compare(corpus_a, corpus_b)
        stat = next(s for s in stats if s.term == "term")
        assert stat.n_a == 60 and stat.n_b == 40
        assert stat.df_a == sum(1 for d in corpus_a if "term" in d.terms)
        assert stat.df_b == sum(1 for d in corpus_b if "term" in d.terms)
        assert stat.rate_a == stat.df_a / 60

    def test_empty_corpus_rejected(self):
        docs = [TokenizedDoc("a", frozenset({"xx"}))]
        with pytest.raises(ValueError, match="non-empty"):
            compare(docs, [])
        with pytest.raises(ValueError, match="q_threshold"):
            compare(docs, docs, q_threshold=0.0)

    def test_term_stat_invariants(self):
        with pytest.raises(ValueError, match="exceed"):
            TermStat("t", 5, 0, 4, 10, 1.0, 0.5, 0.5, DIRECTION_A)
        with pytest.raises(ValueError, match="q-value"):
            TermStat("t", 3, 0, 4, 10, 1.0, 0.5, 0.4, DIRECTION_A)
        with pytest.raises(ValueError, match="direction"):
            TermStat("t", 3, 0, 4, 10, 1.0, 0.5, 0.5, "C")


class TestKwic:
    DOCS = [
        ("d1", "The novel method outperforms the baseline. A novel idea."),
        ("d2", "Nothing novel here, but solid replication work."),
        ("d3", "Entirely unrelated content about cohorts."),
    ]

    def test_absent_term(self):
        assert kwic("quantum", self.DOCS, k=5) == []

    def test_all_occurrences_when_k_exceeds_count(self):
        lines = kwic("novel", self.DOCS, k=10)
        assert len(lines) == 3
        assert [ln.doc_id for ln in lines] == ["d1", "d1", "d2"]

    def test_junction_reconstructs_source(self):
        for line in kwic("novel", self.DOCS, k=10, window=20):
            joined = (line.left + line.term + line.right).lower()
            source = dict(self.DOCS)[line.doc_id].lower()
            assert joined in source

    def test_sampling_is_deterministic(self):
        docs = [("d", "term " * 50)]
        a = kwic("term", docs, k=5, seed=3)
        b = kwic("term", docs, k=5, seed=3)
        assert a == b
        assert len(a) == 5

    def test_different_seeds_vary(self):
        docs = [("d", " ".join(f"w{i:03d} term" for i in range(200)))]
        starts = {
            tuple(ln.left for ln in kwic("term", docs, k=3, seed=s))
            for s in range(6)
        }
        assert len(starts) > 1

    def test_word_boundary_matching(self):
        docs = [("d", "novelty is not the same as novel thinking")]
        lines = kwic("novel", docs, k=5)
        assert len(lines) == 1
        assert lines[0].right.startswith(" thinking")

    def test_match_inside_a_longer_run_is_passed_over(self):
        # "aa" first matches inside "aaa"; the next search starts one
        # character later, not after that match
        [line] = kwic("aa", [("d", "aaa aa")], k=5)
        assert (line.left, line.term, line.right) == ("aaa ", "aa", "")

    def test_case_insensitive(self):
        docs = [("d", "Novel approaches. NOVEL results.")]
        assert len(kwic("novel", docs, k=5)) == 2

    def test_window_bounds(self):
        docs = [("d", "x" * 100 + " target " + "y" * 100)]
        line = kwic("target", docs, k=1, window=10)[0]
        assert len(line.left) == 10
        assert len(line.right) == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="term"):
            kwic("", self.DOCS, k=1)
        with pytest.raises(ValueError, match="k must"):
            kwic("novel", self.DOCS, k=0)
        with pytest.raises(ValueError, match="window"):
            kwic("novel", self.DOCS, k=1, window=0)

    def test_lengthening_lowercase_keeps_the_matched_word(self):
        # "İ" lowers to two characters, so offsets in the lowered text run
        # ahead of the original's
        [line] = kwic("rigorous", [("d", "İİİİ The design is rigorous and sound.")], k=1)
        assert line.term == "rigorous"
        assert line.left == "İİİİ The design is "
        assert line.right == " and sound."

    def test_folded_term_shows_the_original_word(self):
        # "ß" folds to "ss", so the match in the folded text is one
        # character longer than the word it was found in
        [line] = kwic("strasse", [("d", "Die Straße ist lang.")], k=1)
        assert (line.left, line.term, line.right) == ("Die ", "Straße", " ist lang.")
        [line] = kwic("naïve", [("d", "A NAÏVE view, not naive.")], k=5)
        assert (line.left, line.term, line.right) == ("A ", "NAÏVE", " view, not naive.")


class TestTokenizerKwicEquivalence:
    """kwic finds a term in a text exactly when tokenize lists it.

    The wata stage hands kwic only the documents whose term set holds the
    term; that filter is sound only while this equivalence holds.
    """

    TEXTS = [
        "Mixed CASE text: Rigor, RIGOROUS rigour and MiXeD results.",
        "Punctuation!split;words--here (and) there... end.",
        "Digits 42, x40, 3d1 and 2025-10-19 appear.",
        "snake_case and _lead and trail_ and a_b.",
        "A naïve reading, naively naïve.",
        "İstanbul and İİİİ İzmir, then plain istanbul.",
        "Full-width １２３ and ＡＢＣ beside plain words.",
        "हिन्दी भाषा, a decomposed nai\u0308ve cafe\u0301 and a stray \u0301mark.",
    ]
    # runs of term characters that are no token of any text: across a
    # removed character, or a non-ASCII character read as ASCII
    NON_TOKENS = {"naive", "izmir", "snakecase", "splitwords", "123", "abc"}

    def test_membership_matches_on_every_probe(self):
        terms = {text: tokenize("d", text).terms for text in self.TEXTS}
        tokens = set().union(*terms.values())
        # every substring of a token, which is a token itself only where the
        # tokenizer split there
        probes = {
            token[i:j]
            for token in tokens
            for i in range(len(token))
            for j in range(i + MIN_TERM_LENGTH, len(token) + 1)
        } | self.NON_TOKENS
        assert tokens < probes and len(probes - tokens) > len(self.NON_TOKENS)
        for text in self.TEXTS:
            for probe in sorted(probes):
                found = bool(kwic(probe, [("d", text)], k=1))
                assert (probe in terms[text]) == found, (probe, text)


class TestFalseDiscoveryControl:
    def test_null_terms_rarely_pass(self):
        # with no real signal the q <= 0.05 list is almost always empty
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(20):
            rates = {f"t{j}": 0.4 for j in range(30)}
            corpus_a = make_corpus("a", 50, rates, rng)
            corpus_b = make_corpus("b", 50, rates, rng)
            hits += len(compare(corpus_a, corpus_b))
        assert hits <= 3
