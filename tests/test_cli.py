import json

import numpy as np
import pytest

from spkraug.audio_io import read_wav, write_wav
from spkraug.cli import main
from spkraug.dataset import Manifest, load_manifest, save_manifest
from spkraug.embedding import (
    EmbeddingSet,
    EmbeddingVector,
    extract_standin_embedding,
    save_embeddings,
)
from spkraug.metrics import load_pairs
from spkraug.spectral import magnitude_spectrogram, write_spectrogram
from synth import build_corpus, sine


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A small on-disk corpus plus its manifest and embedding files."""
    base = tmp_path_factory.mktemp("cli")
    manifest = build_corpus(base / "corpus", per_speaker=4, seed=11,
                            dur_range=(0.4, 0.7), corpus="cli")
    manifest_path = base / "corpus.jsonl"
    save_manifest(manifest, manifest_path)
    entries = [extract_standin_embedding(read_wav(r.path), r.utterance_id, r.speaker_id)
               for r in manifest]
    emb_path = base / "emb.tsv"
    save_embeddings(EmbeddingSet.from_entries(entries), emb_path)
    return {"base": base, "manifest": manifest,
            "manifest_path": str(manifest_path), "emb_path": str(emb_path)}


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return rc, report, captured.err


# -- parsing and exit codes --------------------------------------------------

def test_no_command_is_usage_error(capsys):
    rc, report, err = _run(capsys, [])
    assert rc == 1
    assert report is None
    assert "error" in err


def test_unknown_flag_is_usage_error(capsys):
    rc, report, err = _run(capsys, ["loss", "--l1", "1", "--att", "1", "--sv", "1",
                                    "--bogus"])
    assert rc == 1
    assert report is None


def test_bad_recipe_choice_is_usage_error(capsys, cli_env):
    rc, _, err = _run(capsys, ["augment", "reverb",
                               "--manifest", cli_env["manifest_path"],
                               "--audio-root", "x", "--output", "y"])
    assert rc == 1
    assert "invalid choice" in err


def test_missing_input_file_is_runtime_error(capsys, tmp_path):
    rc, report, err = _run(capsys, ["subset", "--manifest", str(tmp_path / "no.jsonl"),
                                    "--per-speaker", "1",
                                    "--output", str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert report is None
    assert "error" in err


def test_help_exits_zero(capsys):
    rc = main(["--help"])
    assert rc == 0
    assert "subset" in capsys.readouterr().out


# -- loss / wer --------------------------------------------------------------

def test_loss_report(capsys):
    rc, report, _ = _run(capsys, ["loss", "--l1", "2", "--att", "3", "--sv", "4",
                                  "--alpha", "1", "--beta", "1", "--gamma", "0.1"])
    assert rc == 0
    assert report["loss"] == pytest.approx(5.4)
    assert report["weights"] == {"alpha": 1.0, "beta": 1.0, "gamma": 0.1}


def test_loss_default_weights(capsys):
    rc, report, _ = _run(capsys, ["loss", "--l1", "1", "--att", "1", "--sv", "1"])
    assert rc == 0
    assert report["loss"] == pytest.approx(2.1)


def test_wer_identical_transcripts(capsys, tmp_path):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("The quick brown fox.\n")
    hyp.write_text("the quick brown fox\n")  # case and punctuation are ignored
    rc, report, _ = _run(capsys, ["eval", "wer", "--ref", str(ref), "--hyp", str(hyp)])
    assert rc == 0
    assert report["wer"] == 0.0
    assert report["reference_tokens"] == 4


def test_wer_counts(capsys, tmp_path):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("one two three four\n")
    hyp.write_text("one too three\n")
    rc, report, _ = _run(capsys, ["eval", "wer", "--ref", str(ref), "--hyp", str(hyp)])
    assert rc == 0
    assert report["substitutions"] == 1
    assert report["deletions"] == 1
    assert report["insertions"] == 0
    assert report["wer"] == pytest.approx(0.5)


# -- subset ------------------------------------------------------------------

def test_subset_cli(capsys, cli_env, tmp_path):
    out = tmp_path / "subset.jsonl"
    rc, report, _ = _run(capsys, ["--seed", "7", "subset",
                                  "--manifest", cli_env["manifest_path"],
                                  "--per-speaker", "2", "--output", str(out)])
    assert rc == 0
    assert report["records"] == 6
    assert report["speakers"] == 3
    subset = load_manifest(out)
    numbers = {}
    for r in subset:
        numbers.setdefault(r.speaker_id, set()).add(r.utterance_id[-3:])
    assert all(len(v) == 2 for v in numbers.values())
    shared = set.intersection(*numbers.values())
    assert len(shared) == 2  # parallel mode: same utterance numbers everywhere


def test_subset_cli_is_seed_deterministic(capsys, cli_env, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["--seed", "5", "subset", "--manifest", cli_env["manifest_path"],
            "--per-speaker", "2"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# -- augment / embed / select-best -------------------------------------------

def test_augment_cli(capsys, cli_env, tmp_path):
    out = tmp_path / "aug.jsonl"
    rc, report, _ = _run(capsys, ["augment", "psola-f0",
                                  "--manifest", cli_env["manifest_path"],
                                  "--audio-root", str(tmp_path / "audio"),
                                  "--output", str(out)])
    assert rc == 0
    assert report["jobs"] == 7 * 12
    assert report["written"] == 7 * 12
    assert report["failures"] == []
    built = load_manifest(out)
    assert len(built) == 84
    sample = built.records[0]
    assert read_wav(sample.path).sample_rate == 16000


def test_augment_cli_partial_failure_exits_2(capsys, cli_env, tmp_path):
    manifest = cli_env["manifest"]
    broken = Manifest(
        list(manifest.records[:2])
        + [type(manifest.records[0])("sp9_000", "sp9", str(tmp_path / "no.wav"))],
        corpus=manifest.corpus, sample_rate=manifest.sample_rate,
    )
    broken_path = tmp_path / "broken.jsonl"
    save_manifest(broken, broken_path)
    out = tmp_path / "aug.jsonl"
    rc, report, _ = _run(capsys, ["augment", "resample",
                                  "--manifest", str(broken_path),
                                  "--audio-root", str(tmp_path / "audio"),
                                  "--output", str(out)])
    assert rc == 2
    assert len(report["failures"]) == 4
    assert report["written"] == 8
    assert len(load_manifest(out)) == 8  # the partial manifest is still usable


def test_workers_flag_is_accepted(capsys, cli_env, tmp_path):
    """--workers is accepted for compatibility and changes nothing."""
    built = []
    for workers in ("1", "3"):
        out = tmp_path / f"aug{workers}.jsonl"
        rc, report, _ = _run(capsys, ["--workers", workers, "augment", "psola-mix",
                                      "--manifest", cli_env["manifest_path"],
                                      "--audio-root", str(tmp_path / f"audio{workers}"),
                                      "--output", str(out)])
        assert rc == 0
        assert report["written"] == 4 * 12
        built.append(load_manifest(out))
    one, three = built
    assert [r.utterance_id for r in one] == [r.utterance_id for r in three]
    for a, b in zip(one, three):
        assert open(a.path, "rb").read() == open(b.path, "rb").read()


def test_augment_resume_repeats_the_report(capsys, cli_env, tmp_path):
    """A resume over a finished root reports what the first run reported;
    `written` counts the records in the output manifest."""
    argv = ["augment", "resample", "--manifest", cli_env["manifest_path"],
            "--audio-root", str(tmp_path / "audio"), "--output", str(tmp_path / "aug.jsonl")]
    rc, first, _ = _run(capsys, argv)
    assert rc == 0
    assert first["jobs"] == first["written"] == 48
    rc, second, _ = _run(capsys, argv)
    assert rc == 0
    assert second == first


def test_augment_resume_rewrites_a_truncated_output(capsys, cli_env, tmp_path):
    """A resume regenerates an output cut short, so embed can read them all."""
    base = cli_env["manifest"]
    one_path = tmp_path / "one.jsonl"
    save_manifest(Manifest(base.records[:1], corpus=base.corpus,
                           sample_rate=base.sample_rate), one_path)
    out = tmp_path / "aug.jsonl"
    argv = ["augment", "psola-dur", "--manifest", str(one_path),
            "--audio-root", str(tmp_path / "audio"), "--output", str(out)]
    rc, first, _ = _run(capsys, argv)
    assert rc == 0 and first["written"] == 7
    victim = load_manifest(out).records[2].path
    full = open(victim, "rb").read()
    with open(victim, "wb") as handle:
        handle.write(full[:len(full) // 3])
    rc, second, _ = _run(capsys, argv)
    assert rc == 0 and second == first
    assert open(victim, "rb").read() == full
    rc, report, _ = _run(capsys, ["embed", "--manifest", str(out),
                                  "--output", str(tmp_path / "emb.tsv")])
    assert rc == 0 and report["records"] == 7


def test_malformed_manifest_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"corpus":"c","sample_rate":16000}\n'
                    '{"utterance_id":"u","speaker_id":"s","path":"p","duration_ratio":"abc"}\n')
    rc, report, err = _run(capsys, ["embed", "--manifest", str(path),
                                    "--output", str(tmp_path / "emb.tsv")])
    assert rc == 1
    assert report is None
    assert err.count("\n") == 1
    assert err.startswith("spkraug embed: error:") and ":2:" in err


def _embed_one(capsys, tmp_path, record_line):
    """Run embed over a one-record 16 kHz manifest; returns rc, report, stderr."""
    path = tmp_path / "one.jsonl"
    path.write_text('{"corpus":"c","sample_rate":16000}\n' + record_line + "\n")
    return _run(capsys, ["embed", "--manifest", str(path),
                         "--output", str(tmp_path / "emb.tsv")])


def _assert_one_line_error(rc, report, err, *fragments):
    assert rc == 1
    assert report is None
    assert err.count("\n") == 1 and err.startswith("spkraug embed: error:")
    for fragment in fragments:
        assert fragment in err


def test_embed_rejects_non_string_path(capsys, tmp_path):
    rc, report, err = _embed_one(capsys, tmp_path,
                                 '{"utterance_id":"u","speaker_id":"s","path":null}')
    _assert_one_line_error(rc, report, err, ":2:", "path")


def test_embed_rejects_wav_at_another_rate(capsys, tmp_path):
    wav = tmp_path / "u.wav"
    write_wav(sine(200.0, 0.3, sr=22050), wav)
    rc, report, err = _embed_one(
        capsys, tmp_path, json.dumps({"utterance_id": "u", "speaker_id": "s", "path": str(wav)}))
    _assert_one_line_error(rc, report, err, "22050 Hz", "16000 Hz")


@pytest.mark.parametrize("parity", [0, 1])
def test_embed_rejects_truncated_wav(capsys, tmp_path, parity):
    wav = tmp_path / "u.wav"
    write_wav(sine(200.0, 1.0), wav)
    data = wav.read_bytes()
    wav.write_bytes(data[:len(data) // 3 // 2 * 2 + parity])
    rc, report, err = _embed_one(
        capsys, tmp_path, json.dumps({"utterance_id": "u", "speaker_id": "s", "path": str(wav)}))
    _assert_one_line_error(rc, report, err, "truncated data")


def test_embed_cli(capsys, cli_env, tmp_path):
    out = tmp_path / "emb.tsv"
    rc, report, _ = _run(capsys, ["embed", "--manifest", cli_env["manifest_path"],
                                  "--output", str(out)])
    assert rc == 0
    assert report["records"] == 12
    assert report["dimension"] == 160
    assert out.read_text().startswith("#dim=160\n")


def test_select_best_cli(capsys, cli_env, tmp_path):
    base = cli_env["manifest"]
    parents = Manifest(base.records[:2], corpus=base.corpus, sample_rate=base.sample_rate)
    parents_path = tmp_path / "parents.jsonl"
    save_manifest(parents, parents_path)

    aug_path = tmp_path / "aug.jsonl"
    rc, _, _ = _run(capsys, ["augment", "psola-dur", "--manifest", str(parents_path),
                             "--audio-root", str(tmp_path / "audio"),
                             "--output", str(aug_path)])
    assert rc == 0

    merged = Manifest(list(parents) + list(load_manifest(aug_path)),
                      corpus=base.corpus, sample_rate=base.sample_rate)
    merged_path = tmp_path / "merged.jsonl"
    save_manifest(merged, merged_path)
    emb_path = tmp_path / "emb.tsv"
    rc, _, _ = _run(capsys, ["embed", "--manifest", str(merged_path),
                             "--output", str(emb_path)])
    assert rc == 0

    out = tmp_path / "best.jsonl"
    rc, report, _ = _run(capsys, ["select-best", "--naturals", str(parents_path),
                                  "--augmented", str(aug_path),
                                  "--embeddings", str(emb_path),
                                  "--k", "4", "--output", str(out)])
    assert rc == 0
    assert report["kept"] == 8  # 4 children kept for each of the 2 naturals
    best = load_manifest(out)
    assert len(best) == 10
    assert len(best.naturals()) == 2


# -- pairs / eval ------------------------------------------------------------

def test_pairs_and_eer_cli(capsys, cli_env, tmp_path):
    pairs_path = tmp_path / "pairs.tsv"
    rc, report, _ = _run(capsys, ["--seed", "13", "pairs",
                                  "--eval", cli_env["manifest_path"],
                                  "--pool", cli_env["manifest_path"],
                                  "--output", str(pairs_path)])
    assert rc == 0
    assert report["pairs"] == 24
    assert report["genuine"] == 12
    assert report["impostor"] == 12
    assert all(p.score is None for p in load_pairs(pairs_path))

    rc, report, _ = _run(capsys, ["eval", "eer", "--pairs", str(pairs_path),
                                  "--embeddings", cli_env["emb_path"]])
    assert rc == 0
    assert 0.0 <= report["eer"] <= 1.0
    assert report["genuine"] == 12


def test_eer_cli_unscored_needs_embeddings(capsys, cli_env, tmp_path):
    pairs_path = tmp_path / "pairs.tsv"
    assert main(["pairs", "--eval", cli_env["manifest_path"],
                 "--pool", cli_env["manifest_path"],
                 "--output", str(pairs_path)]) == 0
    capsys.readouterr()
    rc, report, err = _run(capsys, ["eval", "eer", "--pairs", str(pairs_path)])
    assert rc == 1
    assert "--embeddings" in err


def test_eer_cli_stdout_is_reproducible(capsys, cli_env, tmp_path):
    pairs_path = tmp_path / "pairs.tsv"
    assert main(["--seed", "3", "pairs", "--eval", cli_env["manifest_path"],
                 "--pool", cli_env["manifest_path"],
                 "--output", str(pairs_path)]) == 0
    capsys.readouterr()
    argv = ["eval", "eer", "--pairs", str(pairs_path),
            "--embeddings", cli_env["emb_path"]]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_eval_cs_cli(capsys, cli_env):
    rc, report, _ = _run(capsys, ["eval", "cs", "--synth", cli_env["emb_path"],
                                  "--natural", cli_env["emb_path"]])
    assert rc == 0
    assert report["cs_loss"] == pytest.approx(0.0, abs=1e-12)
    assert report["mean_cs"] == pytest.approx(1.0, abs=1e-12)
    assert report["pairs"] == 12


def test_eval_cs_cli_dimension_mismatch(capsys, tmp_path):
    paths = {}
    for dim in (2, 3):
        paths[dim] = tmp_path / f"emb{dim}.tsv"
        save_embeddings(EmbeddingSet.from_entries(
            [EmbeddingVector("u", "s", np.arange(1.0, dim + 1.0))]), paths[dim])
    rc, report, err = _run(capsys, ["eval", "cs", "--synth", str(paths[2]),
                                    "--natural", str(paths[3])])
    assert rc == 1
    assert report is None
    assert err == "spkraug eval: error: 2 vs 3\n"


# -- tsne / vocode -----------------------------------------------------------

def test_tsne_cli(capsys, cli_env, tmp_path):
    coords = tmp_path / "coords.tsv"
    svg = tmp_path / "plot.svg"
    rc, report, _ = _run(capsys, ["--seed", "2", "tsne",
                                  "--embeddings", cli_env["emb_path"],
                                  "--output", str(coords), "--svg", str(svg),
                                  "--perplexity", "3", "--iterations", "60"])
    assert rc == 0
    assert report["points"] == 12
    lines = coords.read_text().splitlines()
    assert len(lines) == 12
    assert svg.read_text().startswith("<svg")


def test_tsne_cli_perplexity_too_large(capsys, cli_env, tmp_path):
    rc, report, err = _run(capsys, ["tsne", "--embeddings", cli_env["emb_path"],
                                    "--output", str(tmp_path / "c.tsv")])
    assert rc == 1  # default perplexity 30 with only 12 points
    assert "perplexity" in err.lower()


def test_vocode_cli(capsys, tmp_path):
    spec = magnitude_spectrogram(sine(440.0, 0.4), 400, 100, 512)
    spec_path = tmp_path / "clip.spg"
    write_spectrogram(spec, spec_path)
    out = tmp_path / "voc.wav"
    rc, report, _ = _run(capsys, ["vocode", "--spectrogram", str(spec_path),
                                  "--output", str(out), "--iterations", "30"])
    assert rc == 0
    clip = read_wav(out)
    assert len(clip) == report["samples"]
    assert report["final_error"] < 0.5
    assert np.max(np.abs(clip.samples)) <= 1.0
