"""refscore: score journal articles for research quality with LLMs and
evaluate the scores with rank statistics, fusion and keyness analysis."""

__version__ = "0.1.0"

from .corpus import (
    Article,
    ArticleSet,
    ExemplarArticle,
    FewShotPool,
    GoldStandard,
    filter_eligible,
    load_articles,
    load_fewshot_pool,
    load_gold_csv,
    sample_per_uoa,
)
from .extract import (
    ParsedScore,
    ReportSections,
    analyze_report,
    detect_multi_article,
    effective_score,
    parse_scores,
    split_reasoning,
)
from .fusion import (
    CvResult,
    DEParams,
    FusionRow,
    FusionWeights,
    assign_folds,
    best_single,
    cv_fusion,
    de_optimize,
    fused_scores,
    fusion_row,
    mean_fusion,
    median_fusion,
    rank_average_fusion,
)
from .gateway import (
    CompletionTask,
    GatewayError,
    MockBackend,
    ModelConfig,
    RawRecord,
    ResponseCache,
    cache_key,
    run_batch,
    simulate_completion,
)
from .harness import ExperimentConfig, load_config, run, run_stages
from .prompts import (
    FewShotSelection,
    Message,
    MessageSequence,
    SystemPromptTemplate,
    build_few_shot_user,
    build_zero_shot_user,
    compose_messages,
    select_fewshot,
)
from .stats import (
    CorrelationResult,
    ScoreCell,
    ScoreMatrix,
    SignTestResult,
    aggregate_across_units,
    binomial_tail,
    bootstrap_ci,
    correlate,
    midranks,
    sign_test,
    spearman,
)
from .violin import ViolinGroup, ViolinSummary, emit_violin_svg, violin_summary
from .wata import KwicLine, TermStat, TokenizedDoc, benjamini_hochberg, compare, kwic, tokenize

__all__ = [name for name in dir() if not name.startswith("_")]
