"""refscore: score journal articles for research quality with LLMs and
evaluate the scores with rank statistics, fusion and keyness analysis."""

__version__ = "0.1.0"
