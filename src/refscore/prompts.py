"""Prompt construction for zero-shot and few-shot article scoring.

The user-message formats are byte-exact contracts: downstream caching and
reproduction depend on them never drifting.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import Article, ExemplarArticle, FewShotPool, STAR_LEVELS
from .util import substream

ZERO_SHOT_PREFIX = "Score this article:\n"
ABSTRACT_MARKER = "\nAbstract\n"
EXEMPLAR_SEPARATOR = "###\n"

#: required opening of every system prompt template
SYSTEM_PROMPT_PREFIX = "You are an academic expert"

ZERO = "zero"
FEW = "few"
STRATEGIES = (ZERO, FEW)


@dataclass(frozen=True)
class SystemPromptTemplate:
    """Verbatim system prompt text, loaded from an external file."""

    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("system prompt is empty")
        if not self.text.startswith(SYSTEM_PROMPT_PREFIX):
            raise ValueError(
                f"system prompt must start with {SYSTEM_PROMPT_PREFIX!r}"
            )

    @classmethod
    def from_file(cls, path: str | Path) -> "SystemPromptTemplate":
        return cls(Path(path).read_text(encoding="utf-8-sig"))


def default_system_prompt() -> str:
    """The system prompt shipped with the package, used when the config names none."""
    from importlib.resources import files

    return files("refscore").joinpath("data/system_prompt.txt").read_text(encoding="utf-8")


@dataclass(frozen=True)
class Message:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class MessageSequence:
    """An ordered chat payload: at most one leading system message, exactly one user message."""

    messages: tuple[Message, ...]

    def __post_init__(self):
        roles = [m.role for m in self.messages]
        if roles.count("user") != 1:
            raise ValueError("message sequence must contain exactly one user message")
        if roles.count("system") > 1:
            raise ValueError("message sequence must contain at most one system message")
        if "system" in roles and roles[0] != "system":
            raise ValueError("system message must come first")

    def __iter__(self):
        return iter(self.messages)

    def __len__(self) -> int:
        return len(self.messages)


@dataclass(frozen=True)
class FewShotSelection:
    """One exemplar per star level, ascending 1..4, all from the target's uoa."""

    exemplars: tuple[ExemplarArticle, ExemplarArticle, ExemplarArticle, ExemplarArticle]
    seed: int
    call_index: int

    def __post_init__(self):
        stars = tuple(ex.star for ex in self.exemplars)
        if stars != STAR_LEVELS:
            raise ValueError(f"exemplar stars must be {STAR_LEVELS}, got {stars}")
        uoas = {ex.article.uoa for ex in self.exemplars}
        if len(uoas) != 1:
            raise ValueError(f"exemplars span multiple uoas: {sorted(uoas)}")


def build_zero_shot_user(article: Article) -> str:
    """``Score this article:\\n{title}\\nAbstract\\n{abstract}`` exactly."""
    if not article.title or not article.abstract:
        raise ValueError(f"article {article.id!r} lacks a title or abstract")
    return f"{ZERO_SHOT_PREFIX}{article.title}{ABSTRACT_MARKER}{article.abstract}"


def select_fewshot(article: Article, pool: FewShotPool, seed: int, call_index: int) -> FewShotSelection:
    """Pick one of the two exemplars at each star level, uniformly and independently.

    Deterministic in (seed, call_index); fresh call indices draw fresh
    selections, which is how per-call regeneration works.
    """
    if article.uoa not in pool.uoas:
        raise ValueError(f"few-shot pool has no exemplars for uoa {article.uoa}")
    rng = substream(seed, "fewshot", call_index)
    picks = rng.integers(0, 2, size=len(STAR_LEVELS))
    chosen = tuple(
        pool.exemplars(article.uoa, star)[picks[i]]
        for i, star in enumerate(STAR_LEVELS)
    )
    return FewShotSelection(exemplars=chosen, seed=seed, call_index=call_index)


def _format_star(star: int) -> str:
    return f"{star}*"


def exemplar_block(exemplar: ExemplarArticle) -> str:
    art = exemplar.article
    return (
        f"This article scores {_format_star(exemplar.star)}:\n"
        f"{art.title}{ABSTRACT_MARKER}{art.abstract}\n{EXEMPLAR_SEPARATOR}"
    )


def build_few_shot_user(article: Article, selection: FewShotSelection) -> str:
    """Four exemplar blocks in ascending star order, then the zero-shot block."""
    blocks = [exemplar_block(ex) for ex in selection.exemplars]
    return "".join(blocks) + build_zero_shot_user(article)


def compose_messages(
    system: SystemPromptTemplate, user: str, supports_system_role: bool
) -> MessageSequence:
    """Pair the system prompt with the user message.

    Models without a system role get a single user message with the system
    text folded in front, separated by one newline.
    """
    if supports_system_role:
        return MessageSequence(
            (Message("system", system.text), Message("user", user))
        )
    return MessageSequence((Message("user", f"{system.text}\n{user}"),))
