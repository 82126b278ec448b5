"""Tests of the benchmark's own arithmetic and output checks (tiny sizes)."""

import json
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_checks  # noqa: E402
import bench_inputs  # noqa: E402
import bench_pass  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_trace import Span  # noqa: E402


def test_self_time_on_hand_built_span_tree():
    root = Span("cli.main.augment", 0.0, 10.0)
    plan = Span("dataset.execute_plan", 1.0, 8.0, root)
    modify = Span("psola.psola_modify", 2.0, 7.0, plan)
    f0 = Span("psola.estimate_f0", 2.5, 3.5, modify)
    marks = Span("psola.place_pitch_marks", 3.5, 4.0, modify)
    save = Span("dataset.save_manifest", 8.5, 9.0, root)
    spans = [f0, marks, modify, plan, save, root]

    own = bench_trace.self_times(spans)
    assert own[id(root)] == pytest.approx(10.0 - 7.0 - 0.5)
    assert own[id(plan)] == pytest.approx(7.0 - 5.0)
    assert own[id(modify)] == pytest.approx(5.0 - 1.0 - 0.5)
    assert own[id(f0)] == pytest.approx(1.0)

    m = bench_trace.span_metrics(spans, jobs_attempted=1, jobs_failed=0, parents=1)
    assert m["psola.psola_modify.self_s"] == pytest.approx(3.5)
    assert m["dataset.execute_plan.self_s"] == pytest.approx(2.0)
    assert m["cli.main.augment.self_s"] == pytest.approx(2.5)
    assert m["cli.main.augment.busy_s"] == pytest.approx(10.0)
    assert m["psola.estimate_f0.calls"] == 1
    assert m["psola.analyses_per_parent"] == 1.0
    assert m["tsne.kl_gradient.calls"] == 0


def test_recorder_links_nested_calls_to_their_parent(tmp_path):
    recorder = bench_trace.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent is by_name["outer"]
    assert by_name["outer"].parent is None
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end \
        <= by_name["outer"].end

    bench_trace.write_spans(recorder.spans, tmp_path / "spans.jsonl")
    lines = [json.loads(ln) for ln in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [(ln["name"], ln["parent"]) for ln in lines] == [("inner", 1), ("outer", None)]


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_trace.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench_inputs.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_corpus_pass(tmp_path_factory):
    """The warm-up corpus pushed through every corpus stage of the CLI."""
    sys.path.insert(0, str(ROOT / "src"))
    from spkraug import cli

    run_dir = tmp_path_factory.mktemp("tiny")
    layout = bench_inputs.generate_corpus(bench_inputs.CORPUS_SIZES["warmup"], 3,
                                          run_dir / "inputs", "tiny")
    stages = bench_pass.Stages(cli.main, ["--workers", "1"])
    pass_dir = run_dir / "pass"
    extra = bench_pass._in_dir(pass_dir, bench_pass.corpus_pass, stages, layout)
    return pass_dir, stages.calls, extra


def test_tiny_pass_passes_every_check(tiny_corpus_pass):
    pass_dir, calls, extra = tiny_corpus_pass
    assert all(c["rc"] == 0 for c in calls)
    checks, jobs, failures, audio_s, naturals = bench_pass.corpus_checks(calls, extra, pass_dir)
    assert [c for c in checks if not c[1]] == []
    assert (jobs, failures, naturals) == (2 * 22 * 3, 0, 3)
    assert audio_s > 0


def test_truncated_output_wav_trips_the_length_check(tiny_corpus_pass, tmp_path):
    pass_dir, calls, extra = tiny_corpus_pass
    naturals = bench_checks.read_manifest(pass_dir / "subset.jsonl")
    augmented = bench_checks.read_manifest(pass_dir / "augmented.jsonl")
    victim = next(r for r in augmented if r["kind"] == "psola_f0")
    copy = tmp_path / "pass"
    for r in naturals + augmented:
        target = copy / r["path"]
        target.parent.mkdir(parents=True, exist_ok=True)
        data = (pass_dir / r["path"]).read_bytes()
        target.write_bytes(data[:len(data) - 200] if r is victim else data)

    psola, speed, _ = bench_checks.check_output_lengths(naturals, augmented, copy)
    assert not psola[1] and victim["utterance_id"] in psola[2]
    assert speed[1]


def test_speed_output_length_allows_one_sample(tmp_path):
    def wav(name, n):
        bench_inputs.write_pcm16(np.zeros(n), tmp_path / name)
        return name

    naturals = [{"utterance_id": "a", "path": wav("a.wav", 1000)}]
    for n, ok in ((952, True), (953, True), (950, False)):
        augmented = [{"utterance_id": "a_s", "parent_id": "a", "kind": "resampled",
                      "duration_ratio": 1.05, "path": wav(f"s{n}.wav", n)}]
        _, speed, _ = bench_checks.check_output_lengths(naturals, augmented, tmp_path)
        assert speed[1] is ok, n


def test_missing_job_trips_the_job_count_check():
    naturals = [{"utterance_id": "a"}]
    augmented = [{"parent_id": "a", "kind": kind}
                 for kind, n in bench_checks.JOBS_PER_KIND.items() for _ in range(n)]
    assert bench_checks.check_job_counts(naturals, augmented)[1]
    assert not bench_checks.check_job_counts(naturals, augmented[1:])[1]


def test_wrong_eer_trips_the_oracle_check(tiny_corpus_pass):
    pass_dir, calls, _ = tiny_corpus_pass
    oracle = bench_checks.load_oracles(ROOT).eer_sweep_oracle
    report = next(c["report"] for c in calls if c["command"] == "eval-eer")
    embeddings = bench_checks.read_embeddings(pass_dir / "embeddings.tsv")
    genuine, impostor = bench_checks.trial_scores(pass_dir / "pairs.tsv", embeddings)
    assert bench_checks.check_eer(report, genuine, impostor, oracle)[1]
    wrong = dict(report, eer=report["eer"] + 1e-6)
    assert not bench_checks.check_eer(wrong, genuine, impostor, oracle)[1]


def test_wer_and_griffin_lim_checks():
    oracle = bench_checks.load_oracles(ROOT).wer_table_oracle
    report = {"wer": 0.5, "substitutions": 1, "deletions": 0, "insertions": 0}
    assert bench_checks.check_wer(report, "The cat.", "the dog", oracle)[1]
    assert not bench_checks.check_wer(dict(report, deletions=1), "The cat.", "the dog", oracle)[1]
    assert bench_checks.check_griffin_lim([0.5, 0.4, 0.4], {"final_error": 0.4})[1]
    assert not bench_checks.check_griffin_lim([0.5, 0.6, 0.4], {"final_error": 0.4})[1]


def test_wav_frames_counts_the_samples_present(tmp_path):
    path = tmp_path / "x.wav"
    bench_inputs.write_pcm16(np.zeros(500), path)
    with wave.open(str(path), "rb") as handle:
        assert handle.getnframes() == 500
    path.write_bytes(path.read_bytes()[:-100])
    assert bench_checks.wav_frames(path) == 450
