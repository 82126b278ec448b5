import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spkraug.audio_io import AudioClip, read_wav, write_wav
from spkraug.cli import main
from spkraug.dataset import RECIPE_JOBS, Manifest, UtteranceRecord, load_manifest, save_manifest
from spkraug.embedding import EmbeddingSet, extract_standin_embedding, save_embeddings
from spkraug.metrics import load_pairs
from spkraug.spectral import (
    griffin_lim,
    magnitude_spectrogram,
    read_spectrogram,
    write_spectrogram,
)
from synth import SR, build_corpus, sine

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A small on-disk corpus plus its manifest and embedding files."""
    base = tmp_path_factory.mktemp("cli")
    manifest = build_corpus(base / "corpus", per_speaker=4, seed=11,
                            dur_range=(0.4, 0.7), corpus="cli")
    manifest_path = base / "corpus.jsonl"
    save_manifest(manifest, manifest_path)
    embeddings = EmbeddingSet([r.utterance_id for r in manifest], [r.speaker_id for r in manifest],
                              np.stack([extract_standin_embedding(read_wav(r.path))
                                        for r in manifest]))
    emb_path = base / "emb.tsv"
    save_embeddings(embeddings, emb_path)
    return {"base": base, "manifest": manifest,
            "manifest_path": str(manifest_path), "emb_path": str(emb_path)}


def _strict_json(constant):
    raise ValueError(f"report is not strict JSON: {constant}")


def _run(capsys, argv):
    """Exit code, the JSON report (which must hold no NaN or Infinity) and stderr."""
    rc = main(argv)
    captured = capsys.readouterr()
    report = (json.loads(captured.out, parse_constant=_strict_json)
              if captured.out.strip() else None)
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


def test_augment_takes_exactly_the_recipe_table_names(capsys):
    assert main(["augment", "--help"]) == 0
    assert "{" + ",".join(sorted(RECIPE_JOBS)) + "}" in capsys.readouterr().out


def test_missing_input_file_is_runtime_error(capsys, tmp_path):
    rc, report, err = _run(capsys, ["subset", "--manifest", str(tmp_path / "no.jsonl"),
                                    "--per-speaker", "1",
                                    "--output", str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert report is None
    assert "error" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(capsys, workers):
    rc, report, err = _run(capsys, ["--workers", workers,
                                    "loss", "--l1", "1", "--att", "1", "--sv", "1"])
    assert rc == 1
    assert report is None
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"spkraug: error: argument --workers: must be at least 1, got {workers}"]


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


def test_loss_overflow_is_an_error(capsys):
    rc, report, err = _run(capsys, ["loss", "--l1", "1e308", "--att", "1e308", "--sv", "0"])
    assert rc == 1
    assert report is None
    assert err.splitlines() == ["spkraug loss: error: weighted loss is not finite: inf"]


@pytest.mark.parametrize("flag,value,section", [
    ("--sv", "-1e-3", "terms"),
    ("--alpha", "-1.5e2", "weights"),
    ("--gamma", "-2E+1", "weights"),
    ("--gamma", "-.5e-1", "weights"),
])
def test_loss_reads_negative_values_in_exponent_notation(capsys, flag, value, section):
    rc, report, err = _run(capsys, ["loss", "--l1", "1", "--att", "1", "--sv", "1",
                                    flag, value])
    assert (rc, err) == (0, "")
    assert report[section][flag[2:]] == float(value)


def test_loss_flag_in_place_of_a_value_is_usage_error(capsys):
    rc, report, err = _run(capsys, ["loss", "--l1", "1", "--att", "1", "--sv", "--alpha", "1"])
    assert rc == 1
    assert report is None
    assert err.splitlines()[-1] == "spkraug loss: error: argument --sv: expected one argument"


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


def test_augment_writes_only_under_the_audio_root(capsys, cli_env, tmp_path):
    """Ids are path parts of the outputs; one that leads out of the root
    fails its parent's jobs and the other parents are still written."""
    good = cli_env["manifest"].records[0]
    root = tmp_path / "root" / "audio"
    parents = [good,
               UtteranceRecord("e1_000", "../outside", good.path),
               UtteranceRecord("e2_000", str(tmp_path / "abs"), good.path),
               UtteranceRecord("../../e3_000", "sp", good.path)]
    manifest = tmp_path / "m.jsonl"
    save_manifest(Manifest(parents, corpus="c", sample_rate=SR), manifest)
    rc, report, _ = _run(capsys, ["augment", "resample", "--manifest", str(manifest),
                                  "--audio-root", str(root),
                                  "--output", str(tmp_path / "aug.jsonl")])
    assert rc == 2
    assert report["written"] == 4
    assert sorted({f["parent_id"] for f in report["failures"]}) == \
        ["../../e3_000", "e1_000", "e2_000"]
    assert len(report["failures"]) == 12
    assert all("outside the audio root" in f["error"] for f in report["failures"])
    written = list(tmp_path.rglob("*.wav"))
    assert len(written) == 4 and all(root in p.parents for p in written)


def test_workers_flag_is_accepted(capsys, cli_env, tmp_path):
    """augment accepts --workers and ignores it: it runs serially."""
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


@pytest.mark.parametrize("argv", [
    ["subset", "--manifest", "{bad}", "--per-speaker", "1", "--output", "{out}"],
    ["embed", "--manifest", "{bad}", "--output", "{out}"],
    ["pairs", "--eval", "{manifest}", "--pool", "{bad}", "--output", "{out}"],
    ["select-best", "--naturals", "{manifest}", "--augmented", "{manifest}",
     "--embeddings", "{bad}", "--output", "{out}"],
    ["eval", "cs", "--synth", "{emb}", "--natural", "{bad}"],
    ["eval", "eer", "--pairs", "{bad}"],
    ["eval", "wer", "--ref", "{bad}", "--hyp", "{bad}"],
], ids=["subset", "embed", "pairs", "select-best", "eval-cs", "eval-eer", "eval-wer"])
def test_non_utf8_input_is_one_line_error(capsys, cli_env, tmp_path, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("caf\u00e9\n".encode("latin-1"))
    paths = {"bad": bad, "out": tmp_path / "out", "manifest": cli_env["manifest_path"],
             "emb": cli_env["emb_path"]}
    rc, report, err = _run(capsys, [a.format(**paths) for a in argv])
    assert rc == 1
    assert report is None
    assert err.count("\n") == 1
    assert err.startswith(f"spkraug {argv[0]}: error: {bad}: not UTF-8 text")


def test_embed_empty_manifest_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text('{"corpus":"c","sample_rate":16000}\n')
    rc, report, err = _run(capsys, ["embed", "--manifest", str(path),
                                    "--output", str(tmp_path / "emb.tsv")])
    assert rc == 1
    assert report is None
    assert err == f"spkraug embed: error: {path}: no records to embed\n"
    assert not (tmp_path / "emb.tsv").exists()


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


@pytest.mark.parametrize("fields", [
    {"utterance_id": "u\t1"},
    {"speaker_id": "s\n1"},
    {"utterance_id": "u\u2028"},
    {"kind": "psola_dur", "duration_ratio": 1.1, "parent_id": "p\x1c"},
], ids=["tab", "newline", "line-separator", "parent-file-separator"])
def test_embed_rejects_id_a_tsv_cannot_hold(capsys, tmp_path, fields):
    """embed would write a TSV row that load_embeddings splits or refuses."""
    wav = tmp_path / "u.wav"
    write_wav(sine(200.0, 0.3), wav)
    key = next(k for k in fields if k.endswith("_id"))
    record = {"utterance_id": "u", "speaker_id": "s", "path": str(wav), **fields}
    rc, report, err = _embed_one(capsys, tmp_path, json.dumps(record))
    _assert_one_line_error(rc, report, err, ":2:", f"{key} must hold no tab or line break")
    assert not (tmp_path / "emb.tsv").exists()


@pytest.mark.parametrize("header,record,lineno", [
    ('{"corpus":"c","sample_rate":16000}',
     '{"utterance_id":"u1","speaker_id":"s","path":"a\\ud800.wav"}', 2),
    ('{"corpus":"c\\ud800","sample_rate":16000}',
     '{"utterance_id":"u1","speaker_id":"s","path":"a.wav"}', 1),
], ids=["surrogate-path", "surrogate-corpus"])
def test_subset_refuses_a_surrogate_no_file_can_hold(capsys, tmp_path, header, record, lineno):
    """save_manifest cannot encode a lone surrogate as UTF-8."""
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(f"{header}\n{record}\n")
    out = tmp_path / "out.jsonl"
    rc, report, err = _run(capsys, ["subset", "--manifest", str(manifest),
                                    "--per-speaker", "1", "--output", str(out)])
    assert rc == 1 and report is None
    assert err.count("\n") == 1
    assert err.startswith(f"spkraug subset: error: {manifest}:{lineno}: ")
    assert "lone surrogate" in err
    assert not out.exists()


@pytest.mark.parametrize("workers", [["--workers", "1"], []], ids=["serial", "default"])
def test_embed_refuses_a_nul_in_a_path(capsys, tmp_path, workers):
    """open() raises ValueError, not OSError, on a path holding NUL."""
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"corpus":"c","sample_rate":16000}\n'
                        '{"utterance_id":"u1","speaker_id":"s","path":"a\\u0000b.wav"}\n')
    out = tmp_path / "emb.tsv"
    rc, report, err = _run(capsys, [*workers, "embed", "--manifest", str(manifest),
                                    "--output", str(out)])
    _assert_one_line_error(rc, report, err, f"{manifest}:2: ", "NUL")
    assert not out.exists()


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


def test_embed_rejects_wav_with_oversized_chunk(capsys, tmp_path):
    """A chunk size that runs past the RIFF chunk once escaped the wave
    module as a bare RuntimeError, and the CLI as a traceback."""
    wav = tmp_path / "u.wav"
    write_wav(sine(200.0, 0.3), wav)
    data = bytearray(wav.read_bytes())
    data[16:20] = struct.pack("<I", 0x00A90010)  # the fmt chunk's size
    wav.write_bytes(bytes(data))
    rc, report, err = _embed_one(
        capsys, tmp_path, json.dumps({"utterance_id": "u", "speaker_id": "s", "path": str(wav)}))
    _assert_one_line_error(rc, report, err, f"{wav}: chunk size exceeds its RIFF container")


def test_embed_cli(capsys, cli_env, tmp_path):
    out = tmp_path / "emb.tsv"
    rc, report, _ = _run(capsys, ["embed", "--manifest", cli_env["manifest_path"],
                                  "--output", str(out)])
    assert rc == 0
    assert report["records"] == 12
    assert report["dimension"] == 160
    assert out.read_text().startswith("#dim=160\n")


def test_embed_output_does_not_depend_on_workers(capsys, cli_env, tmp_path):
    outputs = []
    for workers in ("1", "3"):
        out = tmp_path / f"emb{workers}.tsv"
        rc, _, _ = _run(capsys, ["--workers", workers, "embed",
                                 "--manifest", cli_env["manifest_path"], "--output", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_embed_error_names_the_first_failing_record(capsys, cli_env, tmp_path):
    """Two records fail; the error names the first of them in manifest order,
    with its path, even when both run on the pool."""
    good = cli_env["manifest"].records
    lines = ['{"corpus":"c","sample_rate":16000}']
    for uid, path in [("ok0", good[0].path), ("bad1", tmp_path / "bad1.wav"),
                      ("ok2", good[1].path), ("bad3", tmp_path / "bad3.wav")]:
        if uid.startswith("bad"):
            write_wav(sine(200.0, 0.1), path)
        lines.append(json.dumps({"utterance_id": uid, "speaker_id": "s", "path": str(path)}))
    manifest = tmp_path / "two_bad.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "emb.tsv"
    rc, report, err = _run(capsys, ["--workers", "3", "embed", "--manifest", str(manifest),
                                    "--output", str(out)])
    assert rc == 1
    assert report is None
    assert err == (f"spkraug embed: error: bad1 ({tmp_path / 'bad1.wav'}): "
                   "need at least 0.2 s, got 0.100 s\n")
    assert not out.exists()


def _run_at_blas_threads(argv_for) -> dict:
    """Runs main(argv_for(threads)) in two fresh interpreters, with
    OPENBLAS_NUM_THREADS "1" and "2" set only in their environment. Returns
    each one's stdout by thread count."""
    code = "import sys; from spkraug.cli import main; sys.exit(main(sys.argv[1:]))"
    procs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        procs[threads] = subprocess.Popen([sys.executable, "-c", code, *argv_for(threads)],
                                          env=env, stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE)
    outs = {}
    for threads, proc in procs.items():
        outs[threads], err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    return outs


def test_embed_output_does_not_depend_on_blas_threads(tmp_path):
    """Clips of 4-8 s, long enough that a BLAS matrix product over their
    spectrograms splits across two threads."""
    manifest = build_corpus(tmp_path / "corpus", per_speaker=1, seed=5, dur_range=(4.0, 8.0))
    manifest_path = tmp_path / "long.jsonl"
    save_manifest(manifest, manifest_path)
    _run_at_blas_threads(lambda threads: ["--workers", "1", "embed",
                                          "--manifest", str(manifest_path),
                                          "--output", str(tmp_path / f"emb{threads}.tsv")])
    assert (tmp_path / "emb1.tsv").read_bytes() == (tmp_path / "emb2.tsv").read_bytes()


def test_vocode_output_does_not_depend_on_blas_threads(tmp_path):
    """A 3 s spectrogram at the default geometry (237 x 1025), large enough
    that a BLAS dot product over it splits across two threads."""
    rng = np.random.default_rng(3)
    x = sine(180.0, 3.0).samples + 0.3 * sine(1230.0, 3.0).samples \
        + 0.05 * rng.standard_normal(3 * SR)
    spec_path = tmp_path / "clip.spg"
    write_spectrogram(magnitude_spectrogram(AudioClip(x, SR)), spec_path)
    outs = _run_at_blas_threads(lambda threads: ["vocode", "--spectrogram", str(spec_path),
                                                 "--output", str(tmp_path / f"v{threads}.wav"),
                                                 "--iterations", "10"])
    assert (tmp_path / "v1.wav").read_bytes() == (tmp_path / "v2.wav").read_bytes()
    reports = {threads: json.loads(out) for threads, out in outs.items()}
    assert repr(reports["1"]["final_error"]) == repr(reports["2"]["final_error"])
    assert [repr(e) for e in reports["1"]["errors"]] == [repr(e) for e in reports["2"]["errors"]]


def test_augment_resample_does_not_depend_on_blas_threads(tmp_path):
    manifest = build_corpus(tmp_path / "corpus", per_speaker=1, seed=6, dur_range=(2.0, 4.0))
    manifest_path = tmp_path / "corpus.jsonl"
    save_manifest(manifest, manifest_path)
    _run_at_blas_threads(lambda threads: ["augment", "resample",
                                          "--manifest", str(manifest_path),
                                          "--audio-root", str(tmp_path / f"aug{threads}"),
                                          "--output", str(tmp_path / f"aug{threads}.jsonl")])
    wavs = {threads: {path.name: path.read_bytes()
                      for path in (tmp_path / f"aug{threads}").rglob("*.wav")}
            for threads in ("1", "2")}
    assert len(wavs["1"]) == 4 * len(manifest)
    assert wavs["1"] == wavs["2"]


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


def test_eer_cli_tie_above_two_to_the_53(capsys, tmp_path, recwarn):
    pairs_path = tmp_path / "pairs.tsv"
    pairs_path.write_text("a\tb\tsame\t1e16\nb\ta\tdiff\t1e16\n")
    rc, report, err = _run(capsys, ["eval", "eer", "--pairs", str(pairs_path)])
    assert rc == 0, err
    assert report["eer"] == 0.5
    assert 1e16 <= report["threshold"] <= 1e16 + 2.0
    assert err == ""
    assert len(recwarn) == 0


def test_eer_cli_tie_at_the_largest_float_is_an_error(capsys, tmp_path):
    pairs_path = tmp_path / "pairs.tsv"
    pairs_path.write_text("a\tb\tsame\t1.7976931348623157e308\n"
                          "b\ta\tdiff\t1.7976931348623157e308\n")
    rc, report, err = _run(capsys, ["eval", "eer", "--pairs", str(pairs_path)])
    assert rc == 1
    assert report is None
    assert err.splitlines() == [
        "spkraug eval: error: no finite threshold lies above the top score 1.7976931348623157e+308"]


def test_eval_cs_cli(capsys, cli_env):
    rc, report, _ = _run(capsys, ["eval", "cs", "--synth", cli_env["emb_path"],
                                  "--natural", cli_env["emb_path"]])
    assert rc == 0
    assert report["cs_loss"] == pytest.approx(0.0, abs=1e-12)
    assert report["mean_cs"] == pytest.approx(1.0, abs=1e-12)
    assert report["pairs"] == 12


def test_eval_cs_cli_pairs_rows_by_position_not_id(capsys, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_embeddings(EmbeddingSet(["u1", "u2"], ["s", "s"], [[1.0, 0.0], [0.0, 1.0]]), a)
    save_embeddings(EmbeddingSet(["u2", "u1"], ["s", "s"], [[0.0, 1.0], [1.0, 0.0]]), b)
    rc, report, _ = _run(capsys, ["eval", "cs", "--synth", str(a), "--natural", str(b)])
    assert rc == 0
    assert report["mean_cs"] == 0.0
    assert report["cs_loss"] == 1.0


def test_eval_cs_cli_dimension_mismatch(capsys, tmp_path):
    paths = {}
    for dim in (2, 3):
        paths[dim] = tmp_path / f"emb{dim}.tsv"
        save_embeddings(EmbeddingSet(["u"], ["s"], [np.arange(1.0, dim + 1.0)]), paths[dim])
    rc, report, err = _run(capsys, ["eval", "cs", "--synth", str(paths[2]),
                                    "--natural", str(paths[3])])
    assert rc == 1
    assert report is None
    assert err == "spkraug eval: error: embedding dimensions differ: 2 vs 3\n"


@pytest.mark.parametrize("argv", [
    ["eval", "cs", "--synth", "{big}", "--natural", "{big}"],
    ["eval", "eer", "--pairs", "{pairs}", "--embeddings", "{big}"],
    ["tsne", "--embeddings", "{big}", "--output", "{out}"],
    ["select-best", "--naturals", "{manifest}", "--augmented", "{manifest}",
     "--embeddings", "{big}", "--output", "{out}"],
], ids=["eval-cs", "eval-eer", "tsne", "select-best"])
def test_row_whose_norm_overflows_is_one_line_error(capsys, cli_env, tmp_path, argv):
    """Finite values whose squared norm overflows: refused at load, so no
    NaN score, distance or t-SNE coordinate and no RuntimeWarning."""
    big = tmp_path / "big.tsv"
    big.write_text("#dim=2\nu1\ts1\t1e200\t1e200\nu2\ts2\t1e200\t1e200\n", encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("u1\tu2\tdiff\n", encoding="utf-8")
    paths = {"big": big, "pairs": pairs, "out": tmp_path / "out",
             "manifest": cli_env["manifest_path"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, report, err = _run(capsys, [a.format(**paths) for a in argv])
    assert rc == 1
    assert report is None
    assert err == f"spkraug {argv[0]}: error: {big}:2: embedding norm too large\n"
    assert not (tmp_path / "out").exists()


def test_subset_of_a_manifest_without_naturals_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "aug.jsonl"
    path.write_text('{"corpus":"c","sample_rate":16000}\n'
                    '{"utterance_id":"u__x","speaker_id":"s","path":"p","kind":"psola_dur",'
                    '"duration_ratio":1.1,"parent_id":"u"}\n', encoding="utf-8")
    rc, report, err = _run(capsys, ["subset", "--manifest", str(path), "--per-speaker", "1",
                                    "--output", str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert report is None
    assert err == "spkraug subset: error: manifest has no natural records\n"
    assert not (tmp_path / "out.jsonl").exists()


def test_eval_cs_cli_non_finite_row_names_path_and_line(capsys, tmp_path):
    bad = tmp_path / "nan.tsv"
    bad.write_text("#dim=2\nu1\ts1\t1.0\tnan\n", encoding="utf-8")
    ok = tmp_path / "ok.tsv"
    save_embeddings(EmbeddingSet(["u1"], ["s1"], [[1.0, 0.0]]), ok)
    rc, report, err = _run(capsys, ["eval", "cs", "--synth", str(bad), "--natural", str(ok)])
    assert rc == 1
    assert report is None
    assert err == f"spkraug eval: error: {bad}:2: embedding has non-finite values\n"


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


def test_tsne_cli_on_rows_whose_distance_sum_overflows(capsys, tmp_path):
    """12 rows near 1e153: each squared distance is finite, their sum is not.
    The run ends as on any input, with no RuntimeWarning."""
    emb = tmp_path / "big.tsv"
    rows = np.random.default_rng(5).uniform(-1e153, 1e153, size=(12, 4))
    save_embeddings(EmbeddingSet([f"u{i}" for i in range(12)], [f"s{i % 3}" for i in range(12)],
                                 rows), emb)
    coords = tmp_path / "coords.tsv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, report, err = _run(capsys, ["tsne", "--embeddings", str(emb), "--output", str(coords),
                                        "--perplexity", "3", "--iterations", "50"])
    assert (rc, err) == (0, "")
    assert report["points"] == 12
    assert len(coords.read_text().splitlines()) == 12


def test_tsne_cli_perplexity_too_large(capsys, cli_env, tmp_path):
    rc, report, err = _run(capsys, ["tsne", "--embeddings", cli_env["emb_path"],
                                    "--output", str(tmp_path / "c.tsv")])
    assert rc == 1  # default perplexity 30 with only 12 points
    assert "perplexity" in err.lower()


def test_tsne_cli_rejects_an_id_xml_forbids(capsys, tmp_path):
    emb = tmp_path / "emb.tsv"
    rows = [f"u{i}\ts\t{i + 1.0!r}\t1.0" for i in range(11)]
    emb.write_text("#dim=2\n" + "\n".join(rows + ["a\x01\ts\t0.5\t2.0"]) + "\n")
    svg = tmp_path / "plot.svg"
    rc, report, err = _run(capsys, ["tsne", "--embeddings", str(emb), "--output",
                                    str(tmp_path / "c.tsv"), "--svg", str(svg),
                                    "--perplexity", "2", "--iterations", "5"])
    assert rc == 1
    assert report is None
    assert err == (f"spkraug tsne: error: {emb}: utterance_id must hold no tab or line break, "
                   "nor a character XML 1.0 forbids, got 'a\\x01'\n")
    assert not svg.exists()


def test_tsne_output_does_not_depend_on_blas_threads(tmp_path):
    """1000 points, enough that OpenBLAS would split an unblocked M @ Y in
    the gradient across two threads."""
    rng = np.random.default_rng(4)
    emb = EmbeddingSet([f"u{i:04d}" for i in range(1000)], [f"s{i % 7}" for i in range(1000)],
                       rng.standard_normal((1000, 16)))
    emb_path = tmp_path / "emb.tsv"
    save_embeddings(emb, emb_path)
    _run_at_blas_threads(lambda threads: ["tsne", "--embeddings", str(emb_path),
                                          "--output", str(tmp_path / f"c{threads}.tsv"),
                                          "--iterations", "100"])
    assert (tmp_path / "c1.tsv").read_bytes() == (tmp_path / "c2.tsv").read_bytes()


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


def test_vocode_report_carries_the_error_curve(capsys, tmp_path):
    spec_path = tmp_path / "clip.spg"
    write_spectrogram(magnitude_spectrogram(sine(330.0, 0.3), 400, 100, 512), spec_path)
    rc, report, _ = _run(capsys, ["--seed", "7", "vocode", "--spectrogram", str(spec_path),
                                  "--output", str(tmp_path / "voc.wav"), "--iterations", "9"])
    assert rc == 0
    _, want = griffin_lim(read_spectrogram(spec_path), iterations=9, seed=7,
                          return_errors=True)
    assert report["errors"] == want
    assert report["final_error"] == report["errors"][-1]
    assert all(b <= a for a, b in zip(want, want[1:]))


@pytest.mark.parametrize("command,inputs", [
    ("vocode", ["--spectrogram", "missing.spg"]),
    ("tsne", ["--embeddings", "missing.tsv"]),
])
@pytest.mark.parametrize("iterations", ["0", "-2"])
def test_iterations_below_one_is_usage_error(capsys, tmp_path, command, inputs, iterations):
    """Refused while parsing, before the input file is opened."""
    out = tmp_path / "out"
    rc, report, err = _run(capsys, [command, *inputs, "--output", str(out),
                                    "--iterations", iterations])
    assert rc == 1
    assert report is None
    assert err.startswith(f"usage: spkraug {command} ")
    assert sum(line.startswith("usage:") for line in err.splitlines()) == 1
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"spkraug {command}: error: argument --iterations: "
                      f"must be at least 1, got {iterations}"]
    assert not out.exists()


@pytest.mark.parametrize("argv,flag,value,message", [
    (["subset", "--manifest", "missing.jsonl"], "--per-speaker", "0",
     "must be at least 1, got 0"),
    (["subset", "--manifest", "missing.jsonl"], "--per-speaker", "-2",
     "must be at least 1, got -2"),
    (["select-best", "--naturals", "missing.jsonl", "--augmented", "missing.jsonl",
      "--embeddings", "missing.tsv"], "--k", "-1", "must be at least 0, got -1"),
    (["tsne", "--embeddings", "missing.tsv"], "--perplexity", "0", "must exceed 1, got 0"),
    (["tsne", "--embeddings", "missing.tsv"], "--perplexity", "1", "must exceed 1, got 1"),
    (["tsne", "--embeddings", "missing.tsv"], "--perplexity", "nan", "must exceed 1, got nan"),
    (["tsne", "--embeddings", "missing.tsv"], "--perplexity", "x",
     "invalid float value: 'x'"),
    (["select-best", "--naturals", "missing.jsonl", "--augmented", "missing.jsonl",
      "--embeddings", "missing.tsv"], "--k", "abc", "invalid int value: 'abc'"),
])
def test_bad_count_is_usage_error_before_a_missing_input(capsys, tmp_path, argv, flag, value,
                                                         message):
    """The usage error wins over the missing input named before it."""
    out = tmp_path / "out"
    rc, report, err = _run(capsys, [*argv, flag, value, "--output", str(out)])
    assert rc == 1
    assert report is None
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"spkraug {argv[0]}: error: argument {flag}: {message}"]
    assert not out.exists()


def test_vocode_cli_rejects_zero_frame_spectrogram(capsys, tmp_path):
    spec_path = tmp_path / "empty.spg"
    spec_path.write_bytes(b"SPG1" + struct.pack("<6I", 0, 1025, 2048, 200, 800, 16000))
    out = tmp_path / "voc.wav"
    rc, report, err = _run(capsys, ["vocode", "--spectrogram", str(spec_path),
                                    "--output", str(out)])
    assert rc == 1
    assert report is None
    assert err == f"spkraug vocode: error: {spec_path}: spectrogram has no frames\n"
    assert not out.exists()
