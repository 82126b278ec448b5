"""SciPy is a test dependency only, and numpy.ma is not needed at all.

Every CLI command runs in its own process, and importing scipy.signal costs
about 1.6 s and 76 MiB of start-up, so no command may load any part of
SciPy. Nor may one load numpy.ma, which np.unique imports on its first call
(about 8 ms under -X importtime). The probe is a fresh interpreter, because
the test process itself has both loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from spkraug.dataset import Manifest, execute_plan, plan_augmentation, save_manifest
from spkraug.embedding import EmbeddingSet, save_embeddings
from spkraug.spectral import magnitude_spectrogram, write_spectrogram
from synth import build_corpus, sine

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports spkraug.cli, then runs each argv in turn; prints, as JSON, the
# exit code and the SciPy and numpy.ma modules loaded after the import and
# after every command.
_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"])

import spkraug, spkraug.cli
steps = [["import spkraug, spkraug.cli", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = spkraug.cli.main(argv)
    steps.append([" ".join(argv), rc, loaded()])
print(json.dumps(steps))
"""


def _probe(commands) -> list:
    """The SciPy and numpy.ma modules loaded after the import, then after each command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=300)
    err = proc.stderr
    assert proc.returncode == 0, err
    steps = json.loads(proc.stdout)
    for command, rc, _ in steps:
        assert rc == 0, f"{command}: exit {rc}\n{err}"
    return [modules for _, _, modules in steps]


def test_no_command_loads_scipy_or_numpy_ma(tmp_path):
    def p(name):
        return str(tmp_path / name)

    corpus = build_corpus(tmp_path / "corpus", per_speaker=2, seed=3, dur_range=(0.4, 0.5))
    aug, failures = execute_plan(plan_augmentation(corpus, "psola-dur"), tmp_path / "aug",
                                 corpus=corpus.corpus, sample_rate=corpus.sample_rate)
    assert failures == []
    save_manifest(corpus, p("corpus.jsonl"))
    save_manifest(aug, p("aug.jsonl"))
    save_manifest(Manifest(corpus.records + aug.records, corpus=corpus.corpus,
                           sample_rate=corpus.sample_rate), p("merged.jsonl"))
    Path(p("ref.txt")).write_text("the cat sat\n", encoding="utf-8")
    Path(p("hyp.txt")).write_text("the cat sat down\n", encoding="utf-8")
    write_spectrogram(magnitude_spectrogram(sine(440.0, 0.1), 400, 100, 512), p("clip.spg"))
    points = np.random.default_rng(0).standard_normal((8, 3))
    save_embeddings(EmbeddingSet([f"u{i}" for i in range(8)], ["a"] * 4 + ["b"] * 4, points),
                    p("points.tsv"))

    commands = [
        ["subset", "--manifest", p("corpus.jsonl"), "--per-speaker", "1",
         "--output", p("sub.jsonl")],
        ["augment", "psola-dur", "--manifest", p("sub.jsonl"),
         "--audio-root", p("aug2"), "--output", p("aug2.jsonl")],
        ["augment", "resample", "--manifest", p("corpus.jsonl"),
         "--audio-root", p("fast"), "--output", p("fast.jsonl")],
        ["embed", "--manifest", p("merged.jsonl"), "--output", p("emb.tsv")],
        ["select-best", "--naturals", p("corpus.jsonl"), "--augmented", p("aug.jsonl"),
         "--embeddings", p("emb.tsv"), "--k", "2", "--output", p("best.jsonl")],
        ["pairs", "--eval", p("corpus.jsonl"), "--pool", p("corpus.jsonl"),
         "--output", p("pairs.tsv")],
        ["eval", "eer", "--pairs", p("pairs.tsv"), "--embeddings", p("emb.tsv")],
        ["eval", "cs", "--synth", p("emb.tsv"), "--natural", p("emb.tsv")],
        ["eval", "wer", "--ref", p("ref.txt"), "--hyp", p("hyp.txt")],
        ["loss", "--l1", "1", "--att", "1", "--sv", "1"],
        ["tsne", "--embeddings", p("points.tsv"), "--output", p("coords.tsv"),
         "--perplexity", "2", "--iterations", "3"],
        ["vocode", "--spectrogram", p("clip.spg"), "--output", p("clip.wav"),
         "--iterations", "2"],
    ]
    assert _probe(commands) == [[]] * (1 + len(commands))
