"""Golden digest of a full mock run.

Criterion 9 compares two runs of the same code with each other, so a change
that moved every number would still pass it. This test pins the bytes
themselves: the SHA-256 over the out_dir tree of the small mock run that
``tests/test_harness.py`` also builds. The manifest's ``versions`` key names
the installed library versions and is dropped before hashing.

A change that is meant to alter artifacts must update the pin and say why.
"""
import hashlib
import json

from refscore.harness import STAGES, load_config, run_stages
from refscore.synth import make_synthetic_corpus
from test_harness import write_config

GOLDEN_DIGEST = "c7b391698cd1ac9057e06da400ab5ced227d31b973119902fb4aaf9f669f59f4"


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.relative_to(root).as_posix() == "manifest.json":
            manifest = json.loads(data)
            del manifest["versions"]
            data = json.dumps(manifest, sort_keys=True).encode("utf-8")
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()


def test_mock_run_matches_golden_digest(tmp_path):
    corpus = make_synthetic_corpus(tmp_path, uoas=(1, 2), per_uoa=18, seed=4)
    cfg = load_config(write_config(tmp_path, corpus))
    run_stages(cfg, STAGES)
    assert tree_digest(cfg.out_dir) == GOLDEN_DIGEST
