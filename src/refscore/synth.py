"""Synthetic corpus generation for offline runs, demos and tests.

Writes an article JSONL file, proxy and individual gold CSVs, a few-shot
exemplar pool and a latent-quality sidecar, all deterministic in the seed.
"""
from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .corpus import SCORE_MAX, SCORE_MIN, STAR_LEVELS
from .util import atomic_write_text, clamp, substream

_WORDS = (
    "adaptive", "boundary", "catchment", "diffusion", "ensemble", "fracture",
    "gradient", "habitat", "inference", "junction", "kinetic", "lattice",
    "membrane", "network", "oscillation", "pathway", "quenching", "resonance",
    "sampling", "threshold", "uptake", "vortex", "weighting", "yield",
    "archival", "bilingual", "curricular", "demographic", "epistemic",
    "fiscal", "governance", "heritage", "industrial", "judicial",
)

_DOMAIN_BY_UOA = {
    1: "clinical cohorts",
    2: "cell signalling",
    3: "coastal systems",
    4: "materials under load",
    5: "urban economies",
    6: "language acquisition",
}


def _sentence(rng, n_words: int) -> str:
    words = [_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), size=n_words)]
    return " ".join(words)


def _make_article(rng, uoa: int, art_id: str) -> dict:
    domain = _DOMAIN_BY_UOA.get(uoa, "applied systems")
    title = f"{_sentence(rng, 3).capitalize()} in {domain}"
    n_sentences = int(rng.integers(4, 9))
    sentences = [
        f"We study {_sentence(rng, int(rng.integers(6, 14)))}."
        for _ in range(n_sentences)
    ]
    abstract = " ".join(sentences)
    return {
        "id": art_id,
        "uoa": uoa,
        "doi": f"10.5555/{art_id}",
        "title": title,
        "abstract": abstract,
    }


def make_synthetic_corpus(
    out_dir: str | Path,
    uoas=(1, 2, 3, 4, 5, 6),
    per_uoa: int = 100,
    seed: int = 0,
) -> dict[str, Path]:
    """Write a complete synthetic input set under ``out_dir``.

    Each article gets a latent quality uniform on [1, 4]. Individual gold
    is the latent rounded to the nearest whole star; proxy gold is the
    latent blurred with departmental noise. Exemplar pool ids are disjoint
    from the evaluation ids.

    Returns a mapping of artifact names to paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    articles: list[dict] = []
    latent: dict[str, float] = {}
    for uoa in uoas:
        rng = substream(seed, "synth-articles", uoa)
        for i in range(per_uoa):
            art_id = f"u{uoa}-a{i:04d}"
            articles.append(_make_article(rng, uoa, art_id))
            latent[art_id] = SCORE_MIN + (SCORE_MAX - SCORE_MIN) * float(rng.random())

    articles_path = out_dir / "articles.jsonl"
    atomic_write_text(
        articles_path,
        "".join(json.dumps(a, ensure_ascii=False) + "\n" for a in articles),
    )

    gold_rng = substream(seed, "synth-gold")
    individual_rows = []
    proxy_rows = []
    for art in articles:
        art_id = art["id"]
        quality = latent[art_id]
        individual_rows.append((art_id, float(round(quality))))
        proxy = clamp(quality + gold_rng.normal(0.0, 0.35), SCORE_MIN, SCORE_MAX)
        proxy_rows.append((art_id, round(proxy, 4)))
    individual_path = out_dir / "gold_individual.csv"
    atomic_write_text(individual_path, _gold_csv(individual_rows))
    proxy_path = out_dir / "gold_proxy.csv"
    atomic_write_text(proxy_path, _gold_csv(proxy_rows))

    pool_rows: list[dict] = []
    for uoa in uoas:
        rng = substream(seed, "synth-pool", uoa)
        for star in STAR_LEVELS:
            for copy in (1, 2):
                art_id = f"u{uoa}-ex{star}{copy}"
                art = _make_article(rng, uoa, art_id)
                art["star"] = star
                pool_rows.append(art)
    pool_path = out_dir / "fewshot_pool.jsonl"
    atomic_write_text(
        pool_path,
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in pool_rows),
    )

    latent_path = out_dir / "latent.json"
    atomic_write_text(latent_path, json.dumps(latent, sort_keys=True, indent=1))

    system_path = out_dir / "system_prompt.txt"
    atomic_write_text(system_path, default_system_prompt())

    return {
        "articles": articles_path,
        "gold_individual": individual_path,
        "gold_proxy": proxy_path,
        "fewshot_pool": pool_path,
        "latent": latent_path,
        "system_prompt": system_path,
    }


def _gold_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["article_id", "score"])
    for art_id, score in rows:
        writer.writerow([art_id, score])
    return buf.getvalue()


def default_system_prompt() -> str:
    from importlib.resources import files

    return files("refscore").joinpath("data/system_prompt.txt").read_text(encoding="utf-8")
