"""spkraug benchmark: generate inputs, run passes, check outputs, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs for the workload are generated from
the seed under perfbench/.work/, then passes run one after another (closed
loop, one caller), each in a fresh interpreter (bench_pass.py), until the
measuring time is spent. Every pass augments into a fresh audio root.

With --trace 0 the last stdout line holds the end-to-end metrics, medians
over the passes. With --trace 1 passes cycle through a traced serial pass, an
untraced serial pass and an untraced pass at the default worker count, and
the last line holds the per-layer metrics. The line before it is a record of
the environment, every stage timing, the checks and the output fingerprint;
the same record is kept in perfbench/.work/results/.

Exit status is 0 whenever a result is printed, including when an output check
failed (the result then reads "correct": false); it is 1 when the benchmark
cannot run, e.g. outside a checkout that holds src/spkraug and tests/oracles.py.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial.distance import pdist, squareform

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_checks  # noqa: E402
import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402

# passes stop by this time after start, leaving room for the checks within 180 s
TIME_LIMIT_S = 150.0
MIN_PASSES = 4
GEN_REPEATS = 3
PROGRAM_SEED = 42
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")]
# stage groups of bench_pass; each is reported as `<group>_s`
STAGE_GROUPS = ("augment", "resume", "embed", "select", "score", "tsne", "vocode", "wer")


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _preflight() -> None:
    for needed in (ROOT / "src" / "spkraug" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            raise BenchError(f"{needed} not found: run from the root of an spkraug checkout")


class Runner:
    def __init__(self, args, run_dir: Path, layout: dict, workers: int, deadline: float):
        self.args = args
        self.run_dir = run_dir
        self.layout = layout
        self.workers = workers
        self.deadline = deadline
        self.passes = []

    def spawn(self, mode: str, workers: int, trace: bool) -> dict:
        index = len(self.passes)
        result_path = self.run_dir / f"result-{index:02d}.json"
        config = {"root": str(ROOT), "run_dir": str(self.run_dir), "index": index,
                  "workers": workers, "trace": trace, "layout": self.layout,
                  "program_seed": PROGRAM_SEED, "result": str(result_path),
                  "spans": str(self.run_dir / f"spans-{index:02d}.jsonl"), "spawned": _now()}
        env = {k: v for k, v in os.environ.items() if k != "SPKRAUG_WORKERS"}
        try:
            proc = subprocess.run([sys.executable, str(HERE / "bench_pass.py"), json.dumps(config)],
                                  cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, self.deadline - _now()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {index} did not finish in the time left") from None
        if proc.returncode != 0:
            raise BenchError(f"pass {index} exited with status {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["mode"] = mode
        result["wall_s"] = _now() - config["spawned"]
        self.passes.append(result)
        if index > 0:  # pass-00 is kept for the output checks and fingerprint
            shutil.rmtree(self.run_dir / f"pass-{index:02d}")
        shutil.rmtree(self.run_dir / f"warmup-{index:02d}")
        return result

    def measure(self) -> None:
        if self.args.trace:
            modes = [("traced", 1, True), ("serial", 1, False), ("default", self.workers, False)]
        else:
            modes = [("default", self.workers, False)]
        start = _now()
        while True:
            self.spawn(*modes[len(self.passes) % len(modes)])
            done = len(self.passes)
            elapsed = _now() - start
            mean_wall = elapsed / done
            enough = done >= max(MIN_PASSES, len(modes))
            if enough and elapsed + mean_wall > self.args.seconds:
                break
            if _now() + 1.5 * mean_wall > self.deadline:
                if not enough:
                    raise BenchError(f"{done} passes left no time for the minimum of "
                                     f"{max(MIN_PASSES, len(modes))}")
                break


def _reports(result: dict) -> dict:
    return {c["command"]: c["report"] or {} for c in result["calls"]}


def verify(runner: Runner) -> tuple:
    """Oracle checks on pass-00's outputs, and the quality fingerprint."""
    sys.path.insert(0, str(ROOT / "src"))
    import spkraug
    from spkraug import spectral, tsne

    first = runner.passes[0]
    pass_dir = runner.run_dir / "pass-00"
    layout = runner.layout["pass"]
    reports = _reports(first)
    oracles = bench_checks.load_oracles(ROOT)
    checks = [bench_checks.check("outputs identical in every pass",
                                 len({p["digest"] for p in runner.passes}) == 1)]
    fingerprint = {"sha256": first["digest"], "eer": reports.get("eval-eer", {}).get("eer"),
                   "mean_cs": None, "gl_final_error": None, "tsne_final_kl": None}
    try:
        emb_path = pass_dir / (layout.get("embeddings") or "embeddings.tsv")
        embeddings = bench_checks.read_embeddings(emb_path)
        genuine, impostor = bench_checks.trial_scores(pass_dir / "pairs.tsv", embeddings)
        checks.append(bench_checks.check_eer(reports["eval-eer"], genuine, impostor,
                                             oracles.eer_sweep_oracle))
        if layout["kind"] == "corpus":
            best = bench_checks.read_manifest(pass_dir / "best.jsonl")
            fingerprint["mean_cs"] = bench_checks.mean_child_cs(best, embeddings)
        else:
            fingerprint["mean_cs"] = reports["eval-cs"]["mean_cs"]
            ref = (pass_dir / layout["ref"]).read_text(encoding="utf-8")
            hyp = (pass_dir / layout["hyp"]).read_text(encoding="utf-8")
            checks.append(bench_checks.check_wer(reports["eval-wer"], ref, hyp,
                                                 oracles.wer_table_oracle))
            spec = spectral.read_spectrogram(pass_dir / layout["spg"])
            _, errors = spectral.griffin_lim(spec, iterations=layout["vocode_iterations"],
                                             seed=PROGRAM_SEED, return_errors=True)
            checks.append(bench_checks.check_griffin_lim(errors, reports["vocode"]))
            fingerprint["gl_final_error"] = errors[-1]
            points = bench_checks.read_embeddings(pass_dir / layout["tsne"])
            coords = bench_checks.read_embeddings(pass_dir / "coords.tsv", header=False)
            x = squareform(pdist(np.stack([v for _, v in points.values()]), "sqeuclidean"))
            p = tsne.conditional_probabilities(x, layout["tsne_perplexity"])
            y = np.stack([v for _, v in coords.values()])
            fingerprint["tsne_final_kl"] = tsne.kl_divergence(p, y)
    except Exception as exc:  # noqa: BLE001 - a missing or malformed output fails the run
        checks.append(bench_checks.check("oracle checks ran", False, repr(exc)))
    return checks, fingerprint, spkraug.__version__


def _stage_metrics(passes: list) -> dict:
    out = {f"{group}_s": _median([p["groups"].get(group, 0.0) for p in passes])
           for group in STAGE_GROUPS}
    xrt = [p["augment_audio_s"] / p["groups"]["augment"] for p in passes
           if p["groups"].get("augment")]
    out["augment_xrt"] = _median(xrt)
    return out


def _quartiles(values) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def summarize(runner: Runner, gen_s: float, checks: list, fingerprint: dict,
              version: str) -> tuple:
    passes = runner.passes
    by_mode = {m: [p for p in passes if p["mode"] == m] for m in ("traced", "serial", "default")}
    default = by_mode["default"]
    all_checks = [c for p in passes for c in p["checks"]] + checks

    end_to_end = {
        "setup_s": gen_s + _median([p["setup_s"] for p in passes]),
        "pipeline_s": _median([p["pipeline_s"] for p in default]),
        "cpu_s": _median([p["cpu_s"] for p in default]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in default]),
    }
    stages = _stage_metrics(default)
    if runner.args.trace:
        traced = by_mode["traced"]
        layers = {}
        for name, unit in bench_trace.PER_LAYER:
            values = [p["layers"][name] for p in traced]
            if name in bench_trace.COUNT_METRICS:
                all_checks.append(bench_checks.check(f"{name} repeats exactly",
                                                     len(set(values)) == 1, str(values)))
                layers[name] = values[0]
            else:
                layers[name] = _median(values)
        for name, value in stages.items():
            layers[f"stage.{name}"] = value
        serial_augment = _median([p["groups"].get("augment", 0.0) for p in by_mode["serial"]])
        if stages["augment_s"]:
            layers["dataset.execute_plan.parallel_efficiency"] = (
                serial_augment / (runner.workers * stages["augment_s"]))
        layers["trace.overhead"] = (_median([p["pipeline_s"] for p in traced])
                                    / _median([p["pipeline_s"] for p in by_mode["serial"]]))
        layers["tsne.run_tsne.final_kl"] = fingerprint["tsne_final_kl"] or 0.0
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in bench_trace.PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    attempted = sum(p["jobs"] for p in passes) + len(all_checks)
    failed = sum(p["job_failures"] for p in passes) + sum(1 for c in all_checks if not c[1])
    record = {
        "workload": runner.args.workload, "seed": runner.args.seed, "trace": runner.args.trace,
        "env": {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                "workers": runner.workers, "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
                "seed": runner.args.seed, "spkraug": version},
        "passes": [{"mode": p["mode"], "workers": p["workers"], "setup_s": p["setup_s"],
                    "pipeline_s": p["pipeline_s"], "cpu_s": p["cpu_s"],
                    "peak_rss_mb": p["peak_rss_mb"], "groups": p["groups"]} for p in passes],
        "input_generation_s": gen_s,
        "end_to_end": end_to_end,
        "pipeline_s_quartiles": _quartiles([p["pipeline_s"] for p in default]),
        "stages": stages,
        "failed_ratio": failed / attempted,
        "fingerprint": fingerprint,
        "failed_checks": [c for c in all_checks if not c[1]],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the
    # running pass and the finally clause removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = _now() + TIME_LIMIT_S
    work = HERE / ".work"
    run_dir = work / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        _preflight()
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        gen_times = []
        for _ in range(GEN_REPEATS):  # rewrites the same files; the median is setup's share
            t0 = _now()
            layout = bench_inputs.generate(args.workload, args.seed, run_dir)
            gen_times.append(_now() - t0)
        gen_s = statistics.median(gen_times)
        runner = Runner(args, run_dir, layout, os.cpu_count() or 1, deadline)
        runner.measure()
        checks, fingerprint, version = verify(runner)
        record, result = summarize(runner, gen_s, checks, fingerprint, version)
        results = work / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}"
        if args.trace:  # the first pass is traced
            shutil.move(str(run_dir / "spans-00.jsonl"), str(results / f"{name}-spans.jsonl"))
        line = json.dumps(record, sort_keys=True)
        (results / f"{name}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
