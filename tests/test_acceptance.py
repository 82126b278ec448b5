"""Acceptance suite: eleven end-to-end checks over the whole toolkit.

Each test prints one `ACCEPTANCE nn [...]: PASS|FAIL` line (bypassing pytest's
capture) so the verdict is readable straight from the test run. The corpus is
generated synthetically; nothing here depends on external audio or models.
"""

import contextlib
import io
import json
import os
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    eer_sweep_oracle,
    fft_bin_width,
    fft_peak_hz,
    finite_difference_gradient,
    median_voiced_f0,
    wer_table_oracle,
)
from spkraug.audio_io import AudioClip, read_wav, speed_change
from spkraug.cli import main
from spkraug.dataset import (
    RECIPE_JOBS,
    SPEED_RATIOS,
    Manifest,
    execute_plan,
    generate_eer_pairs,
    load_manifest,
    save_manifest,
    select_best_augmented,
)
from spkraug.embedding import EmbeddingSet, cosine_similarity, extract_standin_embedding
from spkraug.metrics import ScoredPair, equal_error_rate, score_pairs, word_error_rate
from spkraug.psola import psola_modify
from spkraug.spectral import griffin_lim, istft, magnitude_spectrogram, stft
from spkraug.tsne import (
    conditional_probabilities,
    conditional_rows,
    kl_gradient,
    run_tsne,
)
from synth import build_corpus, glide, sawtooth, sine, speechlike


@contextlib.contextmanager
def criterion(capsys, number, label):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} [{label}]: {verdict}")


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """3 speakers x 100 utterances, 0.5-1.5 s each."""
    root = tmp_path_factory.mktemp("acceptance_corpus")
    manifest = build_corpus(root, per_speaker=100, seed=42,
                            dur_range=(0.5, 1.5), corpus="acceptance")
    return root, manifest


@pytest.fixture(scope="session")
def natural_embeddings(mini_corpus):
    _, manifest = mini_corpus
    return _embed(manifest)


def _embed(records):
    """Stand-in embeddings of the records' WAVs, as a set."""
    return EmbeddingSet([r.utterance_id for r in records], [r.speaker_id for r in records],
                        np.stack([extract_standin_embedding(read_wav(r.path)) for r in records]))


def _trials(genuine, impostor):
    pairs = [ScoredPair(f"g{i}", f"g{i}x", True, s) for i, s in enumerate(genuine)]
    pairs += [ScoredPair(f"i{i}", f"i{i}x", False, s) for i, s in enumerate(impostor)]
    return pairs


def _squared_distances(points):
    sq = np.sum(points ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def test_acceptance_01_recipe_counts(mini_corpus, natural_embeddings, capsys, tmp_path):
    _, manifest = mini_corpus
    with criterion(capsys, 1, "each recipe ends at 500 records per speaker"):
        t0 = time.monotonic()
        for recipe in RECIPE_JOBS:
            built, failures = execute_plan(manifest, recipe, tmp_path / recipe)
            assert failures == []
            if recipe in ("psola-dur", "psola-f0"):
                children = _embed(built)
                merged = EmbeddingSet(natural_embeddings.ids + children.ids,
                                      natural_embeddings.speaker_ids + children.speaker_ids,
                                      np.vstack([natural_embeddings.matrix, children.matrix]))
                final = select_best_augmented(manifest, built, merged, k=4)
                counts = Counter(r.speaker_id for r in final)
            else:
                counts = Counter(r.speaker_id for r in manifest)
                counts.update(r.speaker_id for r in built)
            assert counts == {"spk0": 500, "spk1": 500, "spk2": 500}, (recipe, counts)
        assert time.monotonic() - t0 < 300.0


def test_acceptance_02_psola_ratio_contracts(capsys):
    with criterion(capsys, 2, "psola hits every duration and pitch ratio target"):
        inputs = [sawtooth(150.0, 1.0), glide(140.0, 220.0, 1.0)]
        for ratio in (0.85, 0.90, 0.95, 1.05, 1.10, 1.15, 1.20, 1.3, 0.8):
            for clip in inputs:
                out = psola_modify(clip, duration_ratio=ratio, f0_ratio=1.0)
                target = len(clip) * ratio
                assert abs(len(out) - target) <= 0.02 * target, ratio
        for ratio in (0.70, 0.80, 0.90, 1.05, 1.10, 1.20, 1.50):
            for clip in inputs:
                base = median_voiced_f0(clip)
                out = psola_modify(clip, duration_ratio=1.0, f0_ratio=ratio)
                measured = median_voiced_f0(out)
                assert abs(measured - base * ratio) <= 0.05 * base * ratio, ratio


def test_acceptance_03_speed_change_contract(capsys):
    with criterion(capsys, 3, "speed ratios scale duration and pitch exactly"):
        clip = sine(440.0, 1.0)
        bin_hz = fft_bin_width(clip.sample_rate)
        for ratio in SPEED_RATIOS:
            out = speed_change(clip, ratio)
            assert abs(len(out) - len(clip) / ratio) <= 1.0, ratio
            peak = fft_peak_hz(out.samples, out.sample_rate)
            assert abs(peak - 440.0 * ratio) <= bin_hz, ratio


def test_acceptance_04_eer_matches_oracle(capsys):
    with criterion(capsys, 4, "equal error rate matches an exhaustive sweep oracle"):
        rng = np.random.default_rng(4242)
        for trial in range(1000):
            n_gen = int(rng.integers(2, 201))
            n_imp = int(rng.integers(2, 201))
            genuine = rng.normal(0.6, 0.4, n_gen)
            impostor = rng.normal(0.0, 0.4, n_imp)
            if trial % 3 == 0:  # force heavy score ties
                genuine = np.round(genuine, 1)
                impostor = np.round(impostor, 1)
            eer, thr = equal_error_rate(_trials(genuine, impostor))
            want_eer, want_thr = eer_sweep_oracle(genuine, impostor)
            assert abs(eer - want_eer) <= 1e-9, trial
            assert abs(thr - want_thr) <= 1e-9, trial
        separated, _ = equal_error_rate(_trials([0.8, 0.9], [0.1, 0.2, 0.3]))
        assert separated == 0.0


def test_acceptance_05_wer_matches_oracle(capsys):
    with criterion(capsys, 5, "word error rate matches an independent alignment"):
        vocab = list("abcdefghij")
        rng = np.random.default_rng(5150)
        for _ in range(1000):
            ref = [vocab[i] for i in rng.integers(0, 10, int(rng.integers(1, 13)))]
            hyp = [vocab[i] for i in rng.integers(0, 10, int(rng.integers(0, 13)))]
            got = word_error_rate(ref, hyp)
            want = wer_table_oracle(ref, hyp)
            assert got == tuple(want), (ref, hyp)


def test_acceptance_06_tsne_numerics(capsys):
    with criterion(capsys, 6, "t-sne gradient, bandwidth search, cluster layout"):
        rng = np.random.default_rng(606)
        for _ in range(10):
            points = rng.normal(size=(6, 4))
            joint = conditional_probabilities(_squared_distances(points), 2.0)
            coords = rng.normal(size=(6, 2))
            grad = kl_gradient(joint, coords)
            want = finite_difference_gradient(joint, coords)
            assert np.linalg.norm(grad - want) / np.linalg.norm(want) < 1e-4

        points = rng.normal(size=(40, 8))
        rows = conditional_rows(_squared_distances(points), 12.0)
        for i in range(40):
            p = np.delete(rows[i], i)
            entropy = -np.sum(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0))
            assert abs(entropy - np.log2(12.0)) <= 1e-5, i

        cloud = np.vstack([rng.normal(0.0, 1.0, (20, 16)),
                           rng.normal(8.0, 1.0, (20, 16))])
        coords = run_tsne(EmbeddingSet([f"u{i:02d}" for i in range(40)],
                                       ["a"] * 20 + ["b"] * 20, cloud),
                          perplexity=10.0, seed=1)
        first, second = coords[:20], coords[20:]
        intra = np.mean([np.linalg.norm(c[i] - c[j])
                         for c in (first, second)
                         for i in range(20) for j in range(i + 1, 20)])
        inter = np.mean([np.linalg.norm(a - b) for a in first for b in second])
        assert inter > 3.0 * intra


def test_acceptance_07_griffin_lim_convergence(capsys):
    with criterion(capsys, 7, "griffin-lim error never increases and converges"):
        rng = np.random.default_rng(77)
        inputs = [
            sine(440.0, 0.5),
            sawtooth(140.0, 0.5),
            glide(150.0, 250.0, 0.5),
            speechlike(160.0, (850.0, 1900.0), 0.5, seed=7,
                       purpose="tests.acceptance.gl"),
            AudioClip(rng.uniform(-0.5, 0.5, 8000), 16000),
        ]
        for idx, clip in enumerate(inputs):
            spec = magnitude_spectrogram(clip, 400, 100, 512)
            _, errors = griffin_lim(spec, iterations=60, seed=0, return_errors=True)
            assert len(errors) == 60
            assert all(errors[i + 1] <= errors[i] + 1e-9 for i in range(59)), idx
            if idx == 0:
                assert errors[-1] < 0.1


def test_acceptance_08_stft_reconstruction(capsys):
    with criterion(capsys, 8, "inverse stft reconstructs interior samples"):
        rng = np.random.default_rng(88)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1800, 4801))
            x = rng.uniform(-0.9, 0.9, n)
            spec = stft(AudioClip(x, 16000), 800, 200, 1024)
            y = istft(spec, 800, 200, 1024).samples
            worst = max(worst, float(np.max(np.abs(y[800:n - 800] - x[800:n - 800]))))
        assert worst < 1e-6, worst


def _run_pipeline(run_dir):
    """corpus -> subset -> augment -> embed -> select-best -> pairs -> eer,
    all through the CLI with paths relative to run_dir."""
    previous = os.getcwd()
    os.chdir(run_dir)
    try:
        corpus = build_corpus(Path("corpus"), per_speaker=20, seed=42,
                              dur_range=(0.4, 0.8), corpus="pipeline")
        save_manifest(corpus, Path("corpus.jsonl"))
        reports = {}

        def run(name, argv):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                rc = main(argv)
            assert rc == 0, f"{name} exited {rc}"
            reports[name] = buffer.getvalue()

        run("subset", ["--seed", "42", "subset", "--manifest", "corpus.jsonl",
                       "--per-speaker", "10", "--output", "subset.jsonl"])
        run("augment", ["--seed", "42", "--workers", "1", "augment", "psola-f0",
                        "--manifest", "subset.jsonl", "--audio-root", "aug_audio",
                        "--output", "aug.jsonl"])
        merged = Manifest(list(load_manifest("corpus.jsonl"))
                          + list(load_manifest("aug.jsonl")),
                          corpus="pipeline", sample_rate=16000)
        save_manifest(merged, Path("merged.jsonl"))
        run("embed", ["embed", "--manifest", "merged.jsonl", "--output", "emb.tsv"])
        run("select", ["select-best", "--naturals", "subset.jsonl",
                       "--augmented", "aug.jsonl", "--embeddings", "emb.tsv",
                       "--k", "4", "--output", "best.jsonl"])
        run("pairs", ["--seed", "42", "pairs", "--eval", "best.jsonl",
                      "--pool", "corpus.jsonl", "--output", "pairs.tsv"])
        run("eer", ["eval", "eer", "--pairs", "pairs.tsv",
                    "--embeddings", "emb.tsv"])
        return reports
    finally:
        os.chdir(previous)


def test_acceptance_09_pipeline_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "two seeded pipeline runs are byte-identical"):
        t0 = time.monotonic()
        runs = []
        for name in ("run1", "run2"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            runs.append(_run_pipeline(run_dir))
        assert runs[0] == runs[1]
        artifacts = ["corpus.jsonl", "subset.jsonl", "aug.jsonl", "merged.jsonl",
                     "emb.tsv", "best.jsonl", "pairs.tsv"]
        for name in artifacts:
            first = (tmp_path / "run1" / name).read_bytes()
            second = (tmp_path / "run2" / name).read_bytes()
            assert first == second, name
        report = json.loads(runs[0]["eer"])
        assert 0.0 <= report["eer"] <= 1.0
        assert time.monotonic() - t0 < 600.0


def test_acceptance_10_embedding_sanity(mini_corpus, natural_embeddings, capsys):
    _, manifest = mini_corpus
    with criterion(capsys, 10, "same-speaker similarity wins and pipeline eer < 0.25"):
        vectors = natural_embeddings.matrix
        speakers = np.array(natural_embeddings.speaker_ids)
        sims = vectors @ vectors.T
        same = speakers[:, None] == speakers[None, :]
        off_diag = ~np.eye(len(vectors), dtype=bool)
        assert sims[same & off_diag].mean() > sims[~same].mean()

        pairs = generate_eer_pairs(manifest, manifest, seed=42)
        scored = score_pairs(pairs, natural_embeddings)
        eer, _ = equal_error_rate(scored)
        assert eer < 0.25, eer


def test_acceptance_11_copy_synthesis_reads_as_the_same_voice(mini_corpus, capsys):
    """A natural's magnitude spectrogram vocoded back with Griffin-Lim is the
    ceiling of any system vocoded that way, so its stand-in embedding must
    match the natural's; the per-frame centring of the log mel energies
    cancels the level shift Griffin-Lim leaves in quiet frames."""
    _, manifest = mini_corpus
    with criterion(capsys, 11, "copy-synthesis CS >= 0.99 against the natural"):
        for record in manifest.records[::25]:  # 4 utterances per speaker
            natural = read_wav(record.path)
            copy = griffin_lim(magnitude_spectrogram(natural), seed=42)
            cs = cosine_similarity(extract_standin_embedding(natural),
                                   extract_standin_embedding(copy))
            assert cs >= 0.99, (record.utterance_id, cs)
