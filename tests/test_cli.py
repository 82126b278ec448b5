import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spkraug.audio_io import AudioClip, _text_lines, read_wav, write_wav
from spkraug.cli import main
from spkraug.dataset import RECIPE_JOBS, Manifest, UtteranceRecord, load_manifest, save_manifest
from spkraug.embedding import EmbeddingSet, extract_standin_embedding, save_embeddings
from spkraug.errors import SpkraugError
from spkraug.metrics import load_pairs
from spkraug.spectral import (
    Spectrogram,
    griffin_lim,
    magnitude_spectrogram,
    read_spectrogram,
    write_spectrogram,
)
from synth import SR, build_corpus, sine
from test_file_readers import _SEEDS, _mutations

SRC = Path(__file__).resolve().parents[1] / "src"

# warnings are errors here whatever -W says, as pyproject.toml makes them for
# every test; like pyproject.toml, this spares the DeprecationWarning that the
# hypothesis plugin raises while it reports a failing example, which would
# otherwise hide the example behind an INTERNALERROR
_WARNINGS_ARE_ERRORS = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


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


def _run_console_script(*args):
    """Imports the target that pyproject.toml's [project.scripts] names for
    `spkraug` (read as text: tomllib is not in Python 3.10) in a fresh
    interpreter and calls it with sys.argv as an installed `spkraug` would
    set it."""
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^spkraug = "([\w.]+):(\w+)"$', section, re.MULTILINE)
    assert match, "pyproject.toml names no `spkraug` console script"
    module, function = match.groups()
    code = (f"import sys; from {module} import {function}; "
            f"sys.argv = ['spkraug', *sys.argv[1:]]; {function}()")
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)


def test_console_script_runs_the_cli():
    run = _run_console_script("loss", "--l1", "1", "--att", "1", "--sv", "-1e-3")
    assert (run.returncode, run.stderr) == (0, "")
    report = json.loads(run.stdout, parse_constant=_strict_json)
    assert report["command"] == "loss" and report["terms"]["sv"] == -1e-3

    run = _run_console_script("loss", "--l1", "1", "--att", "1", "--sv", "x")
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("usage: spkraug loss ")
    assert sum(line.startswith("usage:") for line in run.stderr.splitlines()) == 1
    assert run.stderr.splitlines()[-1] == ("spkraug loss: error: argument --sv: "
                                           "invalid float value: 'x'")


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


def test_subset_writes_an_output_name_of_255_bytes(capsys, cli_env, tmp_path):
    out = tmp_path / ("s" * 249 + ".jsonl")
    rc, report, _ = _run(capsys, ["subset", "--manifest", cli_env["manifest_path"],
                                  "--per-speaker", "1", "--output", str(out)])
    assert rc == 0 and report["records"] == 3
    assert os.listdir(tmp_path) == [out.name]


@pytest.mark.parametrize("output", [os.path.join("nodir", "s.jsonl"), "."])
def test_an_unwritable_output_is_named_in_one_error_line(capsys, cli_env, tmp_path, monkeypatch,
                                                         output):
    """The error names the output as given, never the temporary file."""
    monkeypatch.chdir(tmp_path)
    rc, report, err = _run(capsys, ["subset", "--manifest", cli_env["manifest_path"],
                                    "--per-speaker", "1", "--output", output])
    assert (rc, report) == (1, None)
    assert re.fullmatch(rf"spkraug subset: error: \[Errno \d+\] [^\n]*: "
                        rf"{re.escape(repr(output))}\n", err)
    assert os.listdir(tmp_path) == []


# -- augment / embed / select-best -------------------------------------------

def test_augment_writes_output_names_of_248_bytes(capsys, tmp_path):
    """A 226-character parent id gives psola-dur output names of up to 248
    bytes, which a directory holds."""
    write_wav(sine(150.0, 0.5), tmp_path / "p.wav")
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(_HEADER + _NATURAL % ("u" * 226, "s", tmp_path / "p"), encoding="utf-8")
    rc, report, _ = _run(capsys, ["augment", "psola-dur", "--manifest", str(manifest),
                                  "--audio-root", str(tmp_path / "aug"),
                                  "--output", str(tmp_path / "aug.jsonl")])
    assert (rc, report["written"], report["failures"]) == (0, 7, [])
    names = os.listdir(tmp_path / "aug" / "s")
    assert len(names) == 7 and max(len(name.encode()) for name in names) == 248


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
    assert report["jobs"] == 12
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
        assert Path(a.path).read_bytes() == Path(b.path).read_bytes()


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
    full = Path(victim).read_bytes()
    with open(victim, "wb") as handle:
        handle.write(full[:len(full) // 3])
    rc, second, _ = _run(capsys, argv)
    assert rc == 0 and second == first
    assert Path(victim).read_bytes() == full
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


@pytest.mark.parametrize("argv", [
    ["subset", "--manifest", "{bad}", "--per-speaker", "1", "--output", "{out}"],
    ["augment", "resample", "--manifest", "{bad}", "--audio-root", "{out}", "--output", "{out}"],
    ["embed", "--manifest", "{bad}", "--output", "{out}"],
    ["select-best", "--naturals", "{bad}", "--augmented", "{manifest}",
     "--embeddings", "{emb}", "--output", "{out}"],
    ["pairs", "--eval", "{manifest}", "--pool", "{bad}", "--output", "{out}"],
], ids=["subset", "augment", "embed", "select-best", "pairs"])
def test_manifest_header_past_the_int_digit_limit_is_one_line_error(capsys, cli_env, tmp_path,
                                                                    argv):
    """json.loads refuses an integer of more than 4300 digits with a plain
    ValueError; the header reports it as its own line-1 error."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"corpus":"c","sample_rate":' + "1" * 4301 + "}\n", encoding="utf-8")
    paths = {"bad": bad, "out": tmp_path / "out", "manifest": cli_env["manifest_path"],
             "emb": cli_env["emb_path"]}
    rc, report, err = _run(capsys, [a.format(**paths) for a in argv])
    assert (rc, report) == (1, None)
    assert err.count("\n") == 1
    assert err.startswith(f"spkraug {argv[0]}: error: {bad}:1: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("argv", [
    ["tsne", "--embeddings", "{bad}", "--output", "{out}"],
    ["select-best", "--naturals", "{manifest}", "--augmented", "{manifest}",
     "--embeddings", "{bad}", "--output", "{out}"],
    ["eval", "cs", "--synth", "{bad}", "--natural", "{emb}"],
    ["eval", "eer", "--pairs", "{pairs}", "--embeddings", "{bad}"],
], ids=["tsne", "select-best", "eval-cs", "eval-eer"])
def test_embeddings_dimension_past_numpy_shapes_is_one_line_error(capsys, cli_env, tmp_path,
                                                                  argv):
    """A #dim= no NumPy shape can hold (here 10**30, with no rows): one line,
    not NumPy's reshape error."""
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"#dim={10**30}\n", encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("u1\tu2\tsame\nu2\tu1\tdiff\n", encoding="utf-8")
    paths = {"bad": bad, "out": tmp_path / "out", "manifest": cli_env["manifest_path"],
             "emb": cli_env["emb_path"], "pairs": pairs}
    rc, report, err = _run(capsys, [a.format(**paths) for a in argv])
    assert (rc, report) == (1, None)
    assert err == (f"spkraug {argv[0]}: error: {bad}: dimension must be in [1, {2**60 - 1}], "
                   f"got {10**30}\n")


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
    assert sum(r.is_natural for r in best) == 2
    # the merged manifest as --augmented: its naturals are skipped, so the
    # output is the one the children alone give (at k = 0, the naturals)
    again = tmp_path / "again.jsonl"
    for k, want in (("4", out), ("0", parents_path)):
        rc, _, _ = _run(capsys, ["select-best", "--naturals", str(parents_path),
                                 "--augmented", str(merged_path), "--embeddings", str(emb_path),
                                 "--k", k, "--output", str(again)])
        assert rc == 0 and again.read_bytes() == want.read_bytes()


def test_select_best_cli_reports_its_checks_in_order(capsys, tmp_path):
    """A negative --k is refused while parsing; then a non-natural record of
    --naturals, then each child's parent, in augmented-record order, then a
    missing embedding, then too few children. Mending each defect in turn
    brings up the next."""
    naturals, augmented, emb = tmp_path / "n.jsonl", tmp_path / "a.jsonl", tmp_path / "e.tsv"
    naturals.write_text(_HEADER + _NATURAL % ("n", "s", "n") + '{"utterance_id":"m",'
                        '"speaker_id":"s","path":"m.wav","kind":"psola_dur",'
                        '"duration_ratio":1.1,"parent_id":"n"}\n', encoding="utf-8")
    emb.write_text("#dim=2\n" + "".join(f"{uid}\ts\t1.0\t{i}.0\n" for i, uid in
                                        enumerate(["n", "c0", "c1", "c2"])), encoding="utf-8")
    parents = {"c0": "n", "c1": "m", "c2": "ghost", "c3": "n"}

    def run(k):
        augmented.write_text(_HEADER + "".join(
            '{"utterance_id":"%s","speaker_id":"s","path":"%s.wav","kind":"psola_dur",'
            '"duration_ratio":1.1,"parent_id":"%s"}\n' % (uid, uid, parent)
            for uid, parent in parents.items()), encoding="utf-8")
        rc, report, err = _run(capsys, ["select-best", "--naturals", str(naturals),
                                        "--augmented", str(augmented), "--embeddings", str(emb),
                                        "--k", k, "--output", str(tmp_path / "out.jsonl")])
        assert (rc, report) == (1, None)
        return err.splitlines()[-1].removeprefix(
            f"spkraug select-best: error: {naturals}, {augmented}, {emb}: ")

    assert run("-1").endswith("argument --k: must be at least 0, got -1")
    assert run("4") == "m: cannot select children for a psola_dur record"
    naturals.write_text(_HEADER + _NATURAL % ("n", "s", "n"), encoding="utf-8")
    assert run("4") == "c1: parent 'm' not found"
    parents["c1"] = "n"
    assert run("4") == "c2: parent 'ghost' not found"
    parents["c2"] = "n"
    assert run("4") == "no embedding for 'c3'"
    del parents["c3"]
    assert run("4") == "n: has 3 augmented children, need 4"
    assert not (tmp_path / "out.jsonl").exists()


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
    assert err.splitlines() == [f"spkraug eval: error: {pairs_path}: no finite threshold lies "
                                "above the top score 1.7976931348623157e+308"]


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
    assert err == (f"spkraug eval: error: {paths[2]}, {paths[3]}: "
                   "embedding dimensions differ: 2 vs 3\n")


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
    assert err == f"spkraug subset: error: {path}: manifest has no natural records\n"
    assert not (tmp_path / "out.jsonl").exists()


_HEADER = '{"corpus":"c","sample_rate":16000}\n'

_NATURAL = '{"utterance_id":"%s","speaker_id":"%s","path":"%s.wav"}\n'
_CHILD = ('{"utterance_id":"u1__x","speaker_id":"s","path":"x.wav","kind":"psola_dur",'
          '"duration_ratio":1.1,"parent_id":"u1"}\n')
_EMB2 = "#dim=2\nu1\ts\t1.0\t0.5\nu2\tt\t0.5\t1.0\n"

# a content check after the read -> (input files, argv ({0}, {1}... are their
# paths), the error message that follows the paths)
_CONTENT_ERRORS = {
    "augment": ({"m.jsonl": _HEADER + _NATURAL % ("u1", "s", "a") + _CHILD},
                ["augment", "resample", "--manifest", "{0}", "--audio-root", "{T}/aug",
                 "--output", "{T}/out"], "u1__x: cannot augment a psola_dur record"),
    "select-best": ({"n.jsonl": _HEADER + _NATURAL % ("u0", "s", "a"),
                     "a.jsonl": _HEADER + _CHILD,
                     "e.tsv": "#dim=2\nu0\ts\t1.0\t0.5\nu1__x\ts\t0.5\t1.0\n"},
                    ["select-best", "--naturals", "{0}", "--augmented", "{1}",
                     "--embeddings", "{2}", "--output", "{T}/out"],
                    "u1__x: parent 'u1' not found"),
    # a natural that sits only in the augmented manifest is no parent
    "select-best natural in augmented": (
        {"n.jsonl": _HEADER, "a.jsonl": _HEADER + _NATURAL % ("u1", "s", "a") + _CHILD,
         "e.tsv": "#dim=2\nu1\ts\t1.0\t0.5\nu1__x\ts\t0.5\t1.0\n"},
        ["select-best", "--naturals", "{0}", "--augmented", "{1}", "--embeddings", "{2}",
         "--k", "1", "--output", "{T}/out"],
        "u1__x: parent 'u1' not found"),
    # naturals plus children as both inputs: the child is refused at every k
    **{f"select-best child in naturals k={k}": (
        {"n.jsonl": _HEADER + _NATURAL % ("u1", "s", "a") + _CHILD,
         "a.jsonl": _HEADER + _NATURAL % ("u1", "s", "a") + _CHILD,
         "e.tsv": "#dim=2\nu1\ts\t1.0\t0.5\nu1__x\ts\t0.5\t1.0\n"},
        ["select-best", "--naturals", "{0}", "--augmented", "{1}", "--embeddings", "{2}",
         "--k", k, "--output", "{T}/out"],
        "u1__x: cannot select children for a psola_dur record") for k in "01"},
    # an utterance number past Python's 4300-digit int-string limit
    "subset": ({"m.jsonl": _HEADER + "".join(_NATURAL % (f"{s}_{n}", s, f"{s}{i}")
                                             for s in "ab" for i, n in enumerate([1, "7" * 5000]))},
               ["subset", "--manifest", "{0}", "--per-speaker", "1", "--output", "{T}/out"],
               f"'a_{'7' * 5000}': utterance number has too many digits"),
    "pairs": ({"e.jsonl": _HEADER + _NATURAL % ("u1", "t", "a"),
               "p.jsonl": _HEADER + _NATURAL % ("v1", "s", "b") + _NATURAL % ("w1", "r", "c")},
              ["pairs", "--eval", "{0}", "--pool", "{1}", "--output", "{T}/out"],
              "no natural pool utterances for 't'"),
    "eval eer": ({"p.tsv": "u1\tu2\tsame\t0.5\n"}, ["eval", "eer", "--pairs", "{0}"],
                 "need both classes, got 1 genuine / 0 impostor"),
    "eval eer unscored": ({"p.tsv": "u1\tu2\tsame\n"}, ["eval", "eer", "--pairs", "{0}"],
                          "pair list has unscored rows; pass --embeddings"),
    "eval cs": ({"s.tsv": "#dim=2\nu1\ts\t1.0\t0.5\n", "n.tsv": _EMB2},
                ["eval", "cs", "--synth", "{0}", "--natural", "{1}"],
                "need equal non-empty batches, got 1 vs 2"),
    "eval wer": ({"r.txt": " \n", "h.txt": "a b\n"},
                 ["eval", "wer", "--ref", "{0}", "--hyp", "{1}"],
                 "reference transcript has no tokens"),
    "tsne": ({"e.tsv": _EMB2}, ["tsne", "--embeddings", "{0}", "--output", "{T}/out"],
             "need at least 4 points, got 2"),
}


@pytest.mark.parametrize("case", sorted(_CONTENT_ERRORS))
def test_content_error_names_the_inputs(capsys, tmp_path, case):
    """A file its reader accepts but the command cannot use: one line that
    names the command's inputs, in argument order, before the message."""
    files, argv, message = _CONTENT_ERRORS[case]
    paths = [tmp_path / name for name in files]
    for path, text in zip(paths, files.values()):
        path.write_text(text, encoding="utf-8")
    rc, report, err = _run(capsys, [a.format(*paths, T=tmp_path) for a in argv])
    assert (rc, report) == (1, None)
    assert err == f"spkraug {argv[0]}: error: {', '.join(map(str, paths))}: {message}\n"


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
    assert err == (f"spkraug tsne: error: {emb}:13: utterance_id must hold no tab or line break, "
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


def test_vocode_cli_rejects_a_negative_seed(capsys, tmp_path):
    """One error line, not NumPy's traceback; the commands that hash the seed
    text through rng_for still take a negative seed."""
    spec_path = tmp_path / "clip.spg"
    write_spectrogram(magnitude_spectrogram(sine(330.0, 0.3), 400, 100, 512), spec_path)
    out = tmp_path / "voc.wav"
    rc, report, err = _run(capsys, ["--seed", "-1", "vocode", "--spectrogram", str(spec_path),
                                    "--output", str(out), "--iterations", "2"])
    assert rc == 1
    assert report is None
    assert err == "spkraug vocode: error: seed must be >= 0, got -1\n"
    assert not out.exists()


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


# -- values at the float extremes ---------------------------------------------

_FLOAT_MAX = 1.7976931348623157e308

# every finite double, subnormals included, with the extremes drawn often
_EXTREME = st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e308, -1e308,
                                      _FLOAT_MAX, -_FLOAT_MAX]),
                     st.floats(allow_nan=False, allow_infinity=False))


def _run_in_process(argv):
    """Like _run, without capsys (hypothesis examples share one test call):
    the exit code, the report of finite numbers or None, and stderr. A report
    must be strict JSON and a failure exactly one error line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    if rc != 0:
        assert (rc, out.getvalue()) == (1, "")
        assert err.getvalue().count("\n") == 1 and ": error: " in err.getvalue()
        return rc, None, err.getvalue()
    assert err.getvalue() == ""
    report = json.loads(out.getvalue(), parse_constant=_strict_json)
    numbers = [v for v in report.values() if isinstance(v, float)]
    numbers += [v for d in report.values() if isinstance(d, dict) for v in d.values()]
    assert all(math.isfinite(v) for v in numbers)
    return rc, report, ""


@_WARNINGS_ARE_ERRORS
@settings(max_examples=80, database=None, derandomize=True)
@given(genuine=st.lists(_EXTREME, min_size=1, max_size=4),
       impostor=st.lists(_EXTREME, min_size=1, max_size=4))
@example(genuine=[_FLOAT_MAX], impostor=[-_FLOAT_MAX])
@example(genuine=[5e-324], impostor=[-5e-324])
@example(genuine=[1e308, -1e308], impostor=[-1e308, 1e308])
def test_eval_eer_at_the_float_extremes_ends_cleanly(tmp_path_factory_session, genuine,
                                                     impostor):
    """Scores anywhere in the doubles give an EER in [0, 1] at a finite
    threshold; only a top score at the largest double, above which no finite
    threshold lies, is refused."""
    path = tmp_path_factory_session / "extreme_pairs.tsv"
    path.write_text("".join(f"e{i}\tt{i}\t{label}\t{score!r}\n" for label, scores in
                            (("same", genuine), ("diff", impostor))
                            for i, score in enumerate(scores)), encoding="utf-8")
    rc, report, err = _run_in_process(["eval", "eer", "--pairs", str(path)])
    top = max(genuine + impostor)
    if top == _FLOAT_MAX:
        assert err == (f"spkraug eval: error: {path}: no finite threshold lies above the top "
                       f"score {top!r}\n")
    else:
        assert rc == 0
        assert 0.0 <= report["eer"] <= 1.0
        assert (report["genuine"], report["impostor"]) == (len(genuine), len(impostor))


@_WARNINGS_ARE_ERRORS
@settings(max_examples=80, database=None, derandomize=True)
@given(terms=st.tuples(_EXTREME, _EXTREME, _EXTREME),
       weights=st.tuples(_EXTREME, _EXTREME, _EXTREME))
@example(terms=(1e308, 0.0, -1e308), weights=(1.0, 1.0, 1e-308))
@example(terms=(5e-324, 5e-324, -5e-324), weights=(-5e-324, _FLOAT_MAX, _FLOAT_MAX))
def test_loss_at_the_float_extremes_ends_cleanly(terms, weights):
    """Terms and weights anywhere in the doubles: the weighted sum when it
    is finite and both non-SV terms are non-negative, else one error line."""
    flags = ["--l1", "--att", "--sv", "--alpha", "--beta", "--gamma"]
    rc, report, err = _run_in_process(
        ["loss", *(a for flag, v in zip(flags, terms + weights) for a in (flag, repr(v)))])
    (l1, att, sv), (alpha, beta, gamma) = terms, weights
    want = alpha * l1 + beta * att + gamma * sv
    if l1 < 0 or att < 0:
        assert err == "spkraug loss: error: l_l1 and l_attention must be non-negative\n"
    elif not math.isfinite(want):
        assert err == f"spkraug loss: error: weighted loss is not finite: {want}\n"
    else:
        assert report["loss"] == want
        assert report["terms"] == {"l1": l1, "attention": att, "sv": sv}


def _extreme_rows(scale: str) -> np.ndarray:
    """12 seeded 4-dim rows at a norm scale of about 1e-150 or 1e153, or
    alternating between the two ("mixed")."""
    rows = np.random.default_rng(8).uniform(-1.0, 1.0, size=(12, 4))
    scales = {"1e-150": [1e-150], "1e153": [1e153], "mixed": [1e-150, 1e153]}[scale]
    return rows * np.resize(scales, 12)[:, None]


def _report(argv) -> dict:
    """The report of a run that must exit 0 (see _run_in_process)."""
    rc, report, err = _run_in_process(argv)
    assert rc == 0, err
    return report


def _select_best(base, emb_path) -> list:
    """select-best with k = 2 over naturals u0..u2 and children u3..u11 (child
    u_i of u_(i % 3)): the ids it keeps."""
    naturals = Manifest([UtteranceRecord(f"u{i}", f"s{i}", f"u{i}.wav") for i in range(3)])
    children = Manifest([UtteranceRecord(f"u{i}", f"s{i % 3}", f"u{i}.wav", "psola_dur", 1.1,
                                         1.0, f"u{i % 3}") for i in range(3, 12)])
    save_manifest(naturals, base / "naturals.jsonl")
    save_manifest(children, base / "children.jsonl")
    report = _report(["select-best", "--naturals", str(base / "naturals.jsonl"),
                      "--augmented", str(base / "children.jsonl"), "--embeddings", str(emb_path),
                      "--k", "2", "--output", str(base / "best.jsonl")])
    assert report["kept"] == 6
    return [r.utterance_id for r in load_manifest(base / "best.jsonl")]


@_WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("scale", ["1e-150", "1e153", "mixed"])
@pytest.mark.parametrize("command", ["eval-cs", "eval-eer", "tsne", "select-best"])
def test_embedding_rows_at_the_norm_extremes_end_cleanly(tmp_path, command, scale):
    """Rows anywhere in the accepted norm range, from ~1e-150 to ~1e153:
    every command that reads embeddings exits 0 with finite numbers, and a
    result that does not depend on the rows' scale equals the one at unit
    norm."""
    ids, speakers = [f"u{i}" for i in range(12)], [f"s{i % 3}" for i in range(12)]
    rows = _extreme_rows(scale)
    emb, unit = tmp_path / "emb.tsv", tmp_path / "unit.tsv"
    save_embeddings(EmbeddingSet(ids, speakers, rows), emb)
    save_embeddings(EmbeddingSet(ids, speakers,
                                 rows / np.linalg.norm(rows, axis=1, keepdims=True)), unit)
    if command == "eval-cs":
        reversed_emb = tmp_path / "reversed.tsv"
        save_embeddings(EmbeddingSet(ids[::-1], speakers[::-1], rows[::-1]), reversed_emb)
        same = _report(["eval", "cs", "--synth", str(emb), "--natural", str(emb)])
        assert same["mean_cs"] == pytest.approx(1.0, abs=1e-12)
        crossed = [_report(["eval", "cs", "--synth", str(emb), "--natural", str(path)])
                   for path in (reversed_emb, unit)]
        assert -1.0 <= crossed[0]["mean_cs"] <= 1.0
        assert crossed[1]["mean_cs"] == pytest.approx(1.0, abs=1e-12)
    elif command == "eval-eer":
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("".join(f"u{i}\tu{(i + d) % 12}\t{'same' if d % 3 == 0 else 'diff'}\n"
                                 for i in range(12) for d in (1, 3)), encoding="utf-8")
        eers = [_report(["eval", "eer", "--pairs", str(pairs), "--embeddings", str(path)])["eer"]
                for path in (emb, unit)]
        assert eers[0] == pytest.approx(eers[1], abs=1e-12)
    elif command == "tsne":
        coords = tmp_path / "coords.tsv"
        _report(["tsne", "--embeddings", str(emb), "--output", str(coords),
                 "--perplexity", "3", "--iterations", "50"])
        values = [float(v) for line in coords.read_text().splitlines()
                  for v in line.split("\t")[2:]]
        assert len(values) == 24 and all(math.isfinite(v) for v in values)
    else:
        kept = _select_best(tmp_path, emb)
        if scale != "mixed":  # a common scale keeps the rank of every distance
            assert kept == _select_best(tmp_path, unit)


_F32_MAX = float(np.finfo(np.float32).max)
_F32_TINY = float(np.finfo(np.float32).smallest_subnormal)


@_WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("magnitudes", ["float32-max", "float32-subnormal", "mixed"])
def test_vocode_at_the_float32_extremes_ends_cleanly(tmp_path, magnitudes):
    """.spg magnitudes at the largest float32, the smallest subnormal one, or
    a checkerboard of both: vocode writes a WAV and a finite error curve."""
    values = np.full((8, 33), _F32_TINY if magnitudes == "float32-subnormal" else _F32_MAX)
    if magnitudes == "mixed":
        values[::2, ::2] = _F32_TINY
    spec_path, out = tmp_path / "x.spg", tmp_path / "x.wav"
    write_spectrogram(Spectrogram(values, 16, 64, 64, SR), spec_path)
    assert np.array_equal(read_spectrogram(spec_path).magnitudes, values)
    report = _report(["vocode", "--spectrogram", str(spec_path), "--output", str(out),
                      "--iterations", "10"])
    assert len(report["errors"]) == 10 and all(math.isfinite(e) for e in report["errors"])
    assert len(read_wav(out)) == report["samples"]


def _full_scale_wav(kind: str) -> np.ndarray:
    """0.5 s at SR: a 200 Hz full-scale square wave, full-scale samples of
    alternating sign, full-scale DC, or one full-scale spike in silence."""
    k = np.arange(SR // 2)
    return {"square": np.where((k // (SR // 400)) % 2 == 0, 1.0, -1.0),
            "alternating": np.where(k % 2 == 0, 1.0, -1.0),
            "dc": np.ones(len(k)),
            "spike": (k == len(k) // 2).astype(np.float64)}[kind]


@_WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("kind", ["square", "alternating", "dc", "spike"])
def test_full_scale_wavs_through_augment_and_embed_end_cleanly(tmp_path, kind):
    """Every augment recipe writes all of its jobs from the WAV, and embed
    reads the natural and every child: exit 0 each time."""
    write_wav(AudioClip(_full_scale_wav(kind), SR), tmp_path / "u1.wav")
    natural = tmp_path / "natural.jsonl"
    save_manifest(Manifest([UtteranceRecord("u1", "s", str(tmp_path / "u1.wav"))]), natural)
    manifests = [natural]
    for recipe, (_, jobs) in RECIPE_JOBS.items():
        manifests.append(tmp_path / f"{recipe}.jsonl")
        report = _report(["augment", recipe, "--manifest", str(natural),
                          "--audio-root", str(tmp_path / "audio"), "--output", str(manifests[-1])])
        assert (report["written"], report["failures"]) == (len(jobs), [])
    for path in manifests:
        report = _report(["--workers", "1", "embed", "--manifest", str(path),
                          "--output", str(tmp_path / "emb.tsv")])
        assert report["records"] == len(load_manifest(path))


# -- mutated inputs, end to end ------------------------------------------------

# sound inputs that a mutated one is run beside ({B} is their directory)
_COMPANIONS = {
    "pool.jsonl": _HEADER + '{"utterance_id":"u1","speaker_id":"s","path":"a.wav"}\n'
                            '{"utterance_id":"v1","speaker_id":"t","path":"b.wav"}\n',
    "naturals.jsonl": _HEADER + '{"utterance_id":"u1","speaker_id":"s1","path":"a.wav"}\n',
    "children.jsonl": _HEADER + '{"utterance_id":"u2","speaker_id":"s1","path":"b.wav",'
                                '"kind":"psola_dur","duration_ratio":1.1,"parent_id":"u1"}\n',
    "trials.tsv": "u1\tu2\tsame\nu2\tu1\tdiff\n",
    "emb3.tsv": "#dim=2\nu1\ts1\t1.0\t0.5\nu2\ts2\t0.25\t1.0\nu3\ts3\t-1.0\t0.5\n",
    "hyp.txt": "the cat sat on a mat\n",
    "wav.jsonl": '{"corpus":"c","sample_rate":8000}\n'
                 '{"utterance_id":"u1","speaker_id":"s","path":"{B}/mutated_embed"}\n',
}

# the readers and seed files of tests/test_file_readers.py, and a transcript
_CLI_SEEDS = {**_SEEDS, "transcript": (_text_lines, lambda p: p.write_text("The cat sat\n"
                                                                            "on the MAT.\n"))}

# run -> (the seed of the mutated input {F}, argv)
_MUTATED_RUNS = {
    "subset": ("load_manifest", ["subset", "--manifest", "{F}", "--per-speaker", "1",
                                 "--output", "{B}/out"]),
    "pairs --eval": ("load_manifest", ["pairs", "--eval", "{F}", "--pool", "{B}/pool.jsonl",
                                       "--output", "{B}/out"]),
    "pairs --pool": ("load_manifest", ["pairs", "--eval", "{B}/manifest.jsonl", "--pool", "{F}",
                                       "--output", "{B}/out"]),
    "select-best": ("load_embeddings", ["select-best", "--naturals", "{B}/naturals.jsonl",
                                        "--augmented", "{B}/children.jsonl", "--embeddings",
                                        "{F}", "--k", "1", "--output", "{B}/out"]),
    "eval cs": ("load_embeddings", ["eval", "cs", "--synth", "{F}", "--natural", "{B}/emb.tsv"]),
    "eval eer --embeddings": ("load_embeddings", ["eval", "eer", "--pairs", "{B}/trials.tsv",
                                                  "--embeddings", "{F}"]),
    "tsne": ("load_embeddings", ["tsne", "--embeddings", "{F}", "--output", "{B}/out",
                                 "--perplexity", "1.5", "--iterations", "5"]),
    "eval eer": ("load_pairs", ["eval", "eer", "--pairs", "{F}", "--embeddings", "{B}/emb3.tsv"]),
    "vocode": ("read_spectrogram", ["vocode", "--spectrogram", "{F}", "--output", "{B}/out",
                                    "--iterations", "5"]),
    "embed": ("read_wav", ["--workers", "1", "embed", "--manifest", "{B}/wav.jsonl",
                           "--output", "{B}/out"]),
    "eval wer": ("transcript", ["eval", "wer", "--ref", "{F}", "--hyp", "{B}/hyp.txt"]),
}


# a value in a text seed: a TSV field, a word, a JSON value or the number after
# `#dim=`; a JSON key (followed by `":`), quotes and separators are framing
_TEXT_VALUE = re.compile(rb'(?<![^\t\n "{}:,=#])(?<!#)[^\t\n "{}:,=#]+(?![^\t\n "{}:,=#])(?!":)')
# boundary values, listed in the value pool before the seed's own; the last
# two are an integer past Python's 4300-digit int-string limit and 2**60, a
# dimension no NumPy shape holds
_TEXT_VALUES = [b"", b"0", b"-1", b"2", b"1e308", b"1e-320", b"nan", b"inf", b"8000", b"same",
                b"diff", b"natural", b"psola_dur", b"x", b"1" * 4301, str(2**60).encode()]
# binary seed -> (header bytes kept, sample type, values a sample may take)
_BINARY_VALUES = {"read_wav": (44, "<i2", [-32768, -1, 0, 1, 32767]),
                  "read_spectrogram": (28, "<f4", [0.0, -1.0, 1e-45, 3.4e38, np.inf, np.nan])}
# one to three (position, value) picks; or, one time in ten, None: every value
# blanked (so a transcript holds no word), every sample 0
_VALUE_PICKS = st.integers(0, 9).flatmap(lambda n: st.none() if n == 0 else st.lists(
    st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)), min_size=1, max_size=3))


def _value_edit(seed_name: str, data: bytes, picks) -> bytes:
    """data with each picked id, number or sample (position modulo their
    count) replaced by a picked value (modulo the pool: a boundary value or
    one of the file's own); the framing stays as it is."""
    if seed_name in _BINARY_VALUES:
        start, dtype, values = _BINARY_VALUES[seed_name]
        samples = np.frombuffer(data, dtype, offset=start).copy()
        if picks is None:
            samples[:] = 0
        for at, value in picks or []:
            samples[at % len(samples)] = values[value % len(values)]
        return data[:start] + samples.tobytes()
    tokens = list(_TEXT_VALUE.finditer(data))
    pool = _TEXT_VALUES + [m.group() for m in tokens]
    edits = ({at % len(tokens): pool[value % len(pool)] for at, value in picks} if picks
             else dict.fromkeys(range(len(tokens)), b""))
    pieces, end = [], 0
    for i, m in enumerate(tokens):
        pieces += [data[end:m.start()], edits.get(i, m.group())]
        end = m.end()
    return b"".join(pieces) + data[end:]


# the value edits' seeds: embed's WAV lasts 0.25 s, long enough to embed
_VALUE_SEEDS = {**_CLI_SEEDS,
                "read_wav": (read_wav, lambda p: write_wav(sine(200.0, 0.25, 8000), p))}


def _check_mutated_run(base, run, mutate, seeds=_CLI_SEEDS) -> None:
    """Run `run` on its seed after `mutate`: exit 0 with a strict-JSON report
    or 1 with one error line that names the mutated file; nothing raises or
    warns. When the input's reader refuses the file, the line carries the
    reader's message."""
    seed, argv = _MUTATED_RUNS[run]
    read, write_seed = seeds[seed]
    base.mkdir(exist_ok=True)
    for name, text in _COMPANIONS.items():
        (base / name).write_text(text.replace("{B}", str(base)), encoding="utf-8")
    _SEEDS["load_manifest"][1](base / "manifest.jsonl")
    _SEEDS["load_embeddings"][1](base / "emb.tsv")
    path = base / f"mutated_{run.split()[0]}"
    write_seed(path)
    path.write_bytes(mutate(seed, path.read_bytes()))
    try:
        read(path)
        refusal = None
    except (SpkraugError, OSError) as exc:
        refusal = str(exc)
    rc, _, err = _run_in_process([a.format(F=path, B=base) for a in argv])
    if rc == 1:
        assert str(path) in err
    if refusal is not None:
        assert rc == 1 and refusal in err


@_WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("run", sorted(_MUTATED_RUNS))
@settings(max_examples=30, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_ends_with_a_report_or_one_line(tmp_path_factory_session, run, data):
    """Byte edits: most files fail in their reader."""
    _check_mutated_run(tmp_path_factory_session / "mutated_cli", run,
                       lambda _, seed: data.draw(_mutations(seed), label="file"))


@_WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("run", sorted(_MUTATED_RUNS))
@settings(max_examples=30, database=None, derandomize=True)
@given(picks=_VALUE_PICKS)
# the header's first value: a manifest's corpus or an embeddings file's #dim=
# set to 2**60; its second: the manifest's sample_rate set past 4300 digits;
# its third: the manifest's first utterance_id, so subset's utterance number
@example(picks=[(0, len(_TEXT_VALUES) - 1)])
@example(picks=[(1, len(_TEXT_VALUES) - 2)])
@example(picks=[(2, len(_TEXT_VALUES) - 2)])
@example(picks=None)
def test_value_edited_input_ends_with_a_report_or_one_line(tmp_path_factory_session, run, picks):
    """Edits of ids and numbers only: more files pass their reader and reach
    the content checks (too few points for t-SNE, one trial class for EER,
    a parent not found, an empty reference)."""
    _check_mutated_run(tmp_path_factory_session / "value_edited_cli", run,
                       lambda name, seed: _value_edit(name, seed, picks), _VALUE_SEEDS)
