"""One pass of a workload in a fresh interpreter.

Usage: python3 bench_pass.py CONFIG_JSON

Set-up is the interpreter start, importing spkraug from the checkout's
`src/` and one warm-up pass over tiny inputs. The timed pass then drives the
toolkit one stage at a time through `spkraug.cli.main(argv)`, with every
file on disk between stages, into a fresh output directory. Only the
`main()` calls are timed. With `"trace": true` the listed public functions
are wrapped in span recorders first (see bench_trace).

The result is written as JSON to the config's `result` path: per-call wall
and CPU time, peak RSS, reports, output checks, the output digest and, when
traced, the per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402

RECIPES = ("resample", "psola-dur", "psola-f0", "psola-mix")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


class Stages:
    """Runs CLI commands through main(argv) and records each call."""

    def __init__(self, main, flags: list, recorder=None):
        self.main = main
        self.flags = flags
        self.recorder = recorder
        self.calls = []

    def run(self, command: str, group: str, argv: list) -> dict:
        argv = self.flags + argv
        buffer = io.StringIO()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            if self.recorder is None:
                rc = self.main(argv)
            else:
                rc = self.recorder.call(f"cli.main.{command}", self.main, (argv,), {})
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        try:
            report = json.loads(buffer.getvalue())
        except ValueError:
            report = None
        self.calls.append({"command": command, "group": group, "rc": rc, "wall_s": wall,
                           "cpu_s": cpu, "report": report})
        return report if isinstance(report, dict) else {}


def _wav_state(directory: Path) -> dict:
    return {str(p): (p.stat().st_mtime_ns, p.stat().st_size)
            for p in sorted(Path(directory).rglob("*.wav"))}


def _merge(sources, target) -> None:
    """Concatenate manifests: the first file's header, every file's records."""
    lines = []
    for i, source in enumerate(sources):
        body = [ln for ln in Path(source).read_text(encoding="utf-8").splitlines() if ln.strip()]
        lines += body if i == 0 else body[1:]
    Path(target).write_text("\n".join(lines) + "\n", encoding="utf-8")


def corpus_pass(stages: Stages, layout: dict) -> dict:
    """subset -> augment x4 (fresh root) -> augment x4 again (resume) ->
    embed -> select-best -> pairs -> eval eer."""
    stages.run("subset", "subset", ["subset", "--manifest", layout["corpus"], "--per-speaker",
                                    str(layout["subset"]), "--output", "subset.jsonl"])
    outputs = [f"aug_{recipe}.jsonl" for recipe in RECIPES]
    argvs = [["augment", recipe, "--manifest", "subset.jsonl", "--audio-root", "aug",
              "--output", out] for recipe, out in zip(RECIPES, outputs)]
    for argv in argvs:
        stages.run("augment", "augment", argv)
    before = _wav_state(Path("aug"))
    for argv in argvs:
        stages.run("augment", "resume", argv)
    resumed_untouched = _wav_state(Path("aug")) == before
    _merge(outputs, "augmented.jsonl")
    _merge(["subset.jsonl", *outputs], "merged.jsonl")
    stages.run("embed", "embed", ["embed", "--manifest", "merged.jsonl",
                                  "--output", "embeddings.tsv"])
    stages.run("select-best", "select", ["select-best", "--naturals", "subset.jsonl",
                                         "--augmented", "augmented.jsonl", "--embeddings",
                                         "embeddings.tsv", "--k", str(layout["k"]),
                                         "--output", "best.jsonl"])
    stages.run("pairs", "score", ["pairs", "--eval", "best.jsonl", "--pool", "subset.jsonl",
                                  "--output", "pairs.tsv"])
    stages.run("eval-eer", "score", ["eval", "eer", "--pairs", "pairs.tsv",
                                     "--embeddings", "embeddings.tsv"])
    return {"resumed_untouched": resumed_untouched}


def eval_pass(stages: Stages, layout: dict) -> dict:
    """select-best -> pairs -> eval eer -> eval cs -> tsne -> vocode -> eval wer."""
    stages.run("select-best", "select", ["select-best", "--naturals", layout["naturals"],
                                         "--augmented", layout["augmented"], "--embeddings",
                                         layout["embeddings"], "--k", str(layout["k"]),
                                         "--output", "best.jsonl"])
    stages.run("pairs", "score", ["pairs", "--eval", "best.jsonl", "--pool", layout["naturals"],
                                  "--output", "pairs.tsv"])
    stages.run("eval-eer", "score", ["eval", "eer", "--pairs", "pairs.tsv",
                                     "--embeddings", layout["embeddings"]])
    stages.run("eval-cs", "score", ["eval", "cs", "--synth", layout["cs_synth"],
                                    "--natural", layout["cs_natural"]])
    stages.run("tsne", "tsne", ["tsne", "--embeddings", layout["tsne"], "--output", "coords.tsv",
                                "--svg", "tsne.svg",
                                "--perplexity", str(layout["tsne_perplexity"]),
                                "--iterations", str(layout["tsne_iterations"])])
    stages.run("vocode", "vocode", ["vocode", "--spectrogram", layout["spg"],
                                    "--output", "vocoded.wav",
                                    "--iterations", str(layout["vocode_iterations"])])
    stages.run("eval-wer", "wer", ["eval", "wer", "--ref", layout["ref"], "--hyp", layout["hyp"]])
    return {}


def _in_dir(directory: Path, fn, *args):
    directory.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(directory)
    try:
        return fn(*args)
    finally:
        os.chdir(previous)


def corpus_checks(calls: list, extra: dict, pass_dir: Path) -> tuple:
    """Job counts, output lengths and resume; returns (checks, jobs, job
    failures, seconds of augmented audio, naturals)."""
    naturals = bench_checks.read_manifest(pass_dir / "subset.jsonl")
    augmented = bench_checks.read_manifest(pass_dir / "augmented.jsonl")
    psola, speed, audio_s = bench_checks.check_output_lengths(naturals, augmented, pass_dir)
    reports = [c["report"] or {} for c in calls if c["command"] == "augment"]
    first, again = reports[:len(RECIPES)], reports[len(RECIPES):]
    checks = [bench_checks.check_job_counts(naturals, augmented), psola, speed,
              bench_checks.check("resume pass rewrote no output",
                                 extra["resumed_untouched"] and first == again)]
    jobs = sum(r.get("jobs", 0) for r in reports)
    failures = sum(len(r.get("failures", [])) for r in reports)
    return checks, jobs, failures, audio_s, len(naturals)


def main(config: dict) -> int:
    root = Path(config["root"])
    sys.path.insert(0, str(root / "src"))
    import spkraug
    from spkraug import cli

    if Path(spkraug.__file__).resolve().parent != (root / "src" / "spkraug").resolve():
        raise SystemExit(f"spkraug imported from {spkraug.__file__}, not from {root / 'src'}")

    flags = ["--seed", str(config["program_seed"]), "--workers", str(config["workers"])]
    run_pass = corpus_pass if config["layout"]["pass"]["kind"] == "corpus" else eval_pass
    run_dir = Path(config["run_dir"])
    _in_dir(run_dir / f"warmup-{config['index']:02d}", run_pass,
            Stages(cli.main, flags), config["layout"]["warmup"])
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - config["spawned"]

    recorder = None
    if config["trace"]:
        recorder = bench_trace.Recorder()
        bench_trace.instrument(recorder)
    stages = Stages(cli.main, flags, recorder)
    pass_dir = run_dir / f"pass-{config['index']:02d}"
    layout = config["layout"]["pass"]
    extra = _in_dir(pass_dir, run_pass, stages, layout)
    peak_rss_mb = _peak_rss_mb()

    calls = stages.calls
    checks = [bench_checks.check(f"{c['command']} exit 0 with a JSON report",
                                 c["rc"] == 0 and isinstance(c["report"], dict),
                                 f"exit {c['rc']}") for c in calls]
    jobs = failures = parents = 0
    audio_s = 0.0
    if layout["kind"] == "corpus":
        try:
            more, jobs, failures, audio_s, parents = corpus_checks(calls, extra, pass_dir)
        except Exception as exc:  # noqa: BLE001 - a missing or malformed output fails the pass
            more = [bench_checks.check("corpus output checks ran", False, repr(exc))]
        checks += more
    groups = {}
    for c in calls:
        groups[c["group"]] = groups.get(c["group"], 0.0) + c["wall_s"]
    result = {
        "index": config["index"], "trace": config["trace"], "workers": config["workers"],
        "setup_s": setup_s, "pipeline_s": sum(c["wall_s"] for c in calls),
        "cpu_s": sum(c["cpu_s"] for c in calls), "peak_rss_mb": peak_rss_mb,
        "groups": groups, "augment_audio_s": audio_s, "jobs": jobs, "job_failures": failures,
        "calls": calls, "checks": checks, "digest": bench_checks.tree_digest(pass_dir),
    }
    if recorder is not None:
        result["layers"] = bench_trace.span_metrics(recorder.spans, jobs, failures, parents)
        bench_trace.write_spans(recorder.spans, config["spans"])
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
