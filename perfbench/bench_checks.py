"""Output checks and the quality fingerprint.

Every check returns `[name, ok, detail]`; a failed check counts as a failed
operation in the run's result. The checks read the files the program wrote
with their own parsers (stdlib `wave`, `json`, plain text), so a defect in the
program's readers cannot hide a defect in what it wrote.
"""

import hashlib
import importlib.util
import json
import wave
from pathlib import Path

import numpy as np

# augmented records each natural must get, per kind (one recipe per kind)
JOBS_PER_KIND = {"resampled": 4, "psola_dur": 7, "psola_f0": 7, "psola_mix": 4}
EER_TOLERANCE = 1e-9
GL_TOLERANCE = 1e-9
WER_PUNCTUATION = '.,;:!?"'


def check(name, ok, detail="") -> list:
    return [name, bool(ok), detail]


def load_oracles(root: Path):
    """The repository's reference implementations, tests/oracles.py."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles",
                                                  root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_manifest(path: Path) -> list:
    """Record dicts of a JSON-lines manifest (the header line is skipped)."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    return [json.loads(ln) for ln in lines[1:]]


def wav_frames(path: Path) -> int:
    """Samples actually present in a 16-bit mono WAV's data chunk; a file cut
    short reads as the frames that survive, whatever its header claims."""
    with wave.open(str(path), "rb") as handle:
        data = handle.readframes(handle.getnframes())
        return len(data) // (handle.getsampwidth() * handle.getnchannels())


def check_job_counts(naturals: list, augmented: list) -> list:
    counts = {}
    for r in augmented:
        key = (r["parent_id"], r["kind"])
        counts[key] = counts.get(key, 0) + 1
    wrong = [f"{uid}/{kind}: {counts.get((uid, kind), 0)} != {want}"
             for uid in (r["utterance_id"] for r in naturals)
             for kind, want in JOBS_PER_KIND.items() if counts.get((uid, kind), 0) != want]
    extra = len(augmented) - len(naturals) * sum(JOBS_PER_KIND.values())
    return check("augment job counts 4/7/7/4 per natural", not wrong and extra == 0,
                 "; ".join(wrong[:5]) or (f"{extra} extra records" if extra else ""))


def check_output_lengths(naturals: list, augmented: list, base: Path):
    """PSOLA outputs are round(n*d) samples, speed outputs within one sample
    of n/ratio. Returns (psola check, speed check, seconds of output audio)."""
    parent_frames = {r["utterance_id"]: wav_frames(base / r["path"]) for r in naturals}
    bad_psola, bad_speed, total = [], [], 0
    for r in augmented:
        got = wav_frames(base / r["path"])
        total += got
        n = parent_frames[r["parent_id"]]
        if r["kind"] == "resampled":
            if abs(got - n / r["duration_ratio"]) > 1.0:
                bad_speed.append(f"{r['utterance_id']}: {got} vs {n / r['duration_ratio']:.1f}")
        elif got != round(n * r["duration_ratio"]):
            bad_psola.append(f"{r['utterance_id']}: {got} vs {round(n * r['duration_ratio'])}")
    return (check("psola output length round(n*d)", not bad_psola, "; ".join(bad_psola[:5])),
            check("speed output length n/ratio +-1", not bad_speed, "; ".join(bad_speed[:5])),
            total / 16000.0)


def read_embeddings(path: Path, header: bool = True) -> dict:
    """id -> (speaker, vector) of an embeddings or coordinates TSV."""
    rows = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines()[int(header):]:
        if line.strip():
            parts = line.split("\t")
            rows[parts[0]] = (parts[1], np.array([float(v) for v in parts[2:]]))
    return rows


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))


def trial_scores(pairs_path: Path, embeddings: dict):
    """(genuine, impostor) cosine scores of a pair list."""
    genuine, impostor = [], []
    for line in Path(pairs_path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            enroll, test, label = line.split("\t")[:3]
            score = cosine(embeddings[enroll][1], embeddings[test][1])
            (genuine if label == "same" else impostor).append(score)
    return genuine, impostor


def check_eer(report: dict, genuine, impostor, oracle) -> list:
    want_eer, want_threshold = oracle(genuine, impostor)
    got_eer, got_threshold = report.get("eer"), report.get("threshold")
    ok = (got_eer is not None and abs(got_eer - want_eer) <= EER_TOLERANCE
          and abs(got_threshold - want_threshold) <= EER_TOLERANCE)
    return check("eval eer matches eer_sweep_oracle", ok,
                 f"got ({got_eer}, {got_threshold}), oracle ({want_eer}, {want_threshold})")


def tokenize(text: str) -> list:
    return text.lower().translate({ord(c): None for c in WER_PUNCTUATION}).split()


def check_wer(report: dict, ref_text: str, hyp_text: str, oracle) -> list:
    want = list(oracle(tokenize(ref_text), tokenize(hyp_text)))
    got = [report.get(k) for k in ("wer", "substitutions", "deletions", "insertions")]
    return check("eval wer matches wer_table_oracle", got == want, f"got {got}, oracle {want}")


def check_griffin_lim(errors, report: dict) -> list:
    rising = [i for i in range(len(errors) - 1) if errors[i + 1] > errors[i] + GL_TOLERANCE]
    ok = not rising and bool(errors) and errors[-1] == report.get("final_error")
    return check("griffin-lim error curve non-increasing", ok,
                 f"rises after iterations {rising[:5]}" if rising else
                 f"final {errors[-1] if errors else None} vs report {report.get('final_error')}")


def tree_digest(directory: Path) -> str:
    """sha256 over the relative path and bytes of every file below directory."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def mean_child_cs(best: list, embeddings: dict) -> float:
    """Mean cosine similarity of each kept augmented child to its parent."""
    sims = [cosine(embeddings[r["utterance_id"]][1], embeddings[r["parent_id"]][1])
            for r in best if r["parent_id"] is not None]
    return float(np.mean(sims))
