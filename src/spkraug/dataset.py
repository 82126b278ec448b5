"""Corpus manifests and the augmentation workflow.

A manifest is a JSON-lines file: one metadata header line, then one record
per line. Records are either natural recordings or augmented derivatives
(resampled speed changes or PSOLA modifications) that point back at their
natural parent.
"""

import json
import re
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

from .audio_io import read_wav, read_wav_header, speed_change, speed_change_length, write_wav
from .embedding import EmbeddingSet, _first_seen, select_k_nearest
from .errors import (
    EmbeddingFileError,
    InsufficientPoolError,
    InsufficientUtterancesError,
    InvalidParamsError,
    KTooLargeError,
    ManifestError,
    MissingEmbeddingError,
    NonNaturalInputError,
    SpkraugError,
)
from .metrics import ScoredPair
from .psola import analyse, synthesis_length, synthesise
from .rng import rng_for

NATURAL = "natural"
RESAMPLED = "resampled"
PSOLA_DUR = "psola_dur"
PSOLA_F0 = "psola_f0"
PSOLA_MIX = "psola_mix"
KINDS = (NATURAL, RESAMPLED, PSOLA_DUR, PSOLA_F0, PSOLA_MIX)

# ratio sets applied per natural utterance, one job per value
SPEED_RATIOS = (0.95, 0.975, 1.025, 1.05)
PSOLA_DUR_RATIOS = (0.85, 0.90, 0.95, 1.05, 1.10, 1.15, 1.20)
PSOLA_F0_RATIOS = (0.70, 0.80, 0.90, 1.05, 1.10, 1.20, 1.50)
PSOLA_MIX_JOBS = ((1.3, 1.0), (0.8, 1.0), (1.0, 0.8), (1.0, 1.2))
RECIPES = ("up_down", "psola_dur", "psola_f0", "psola_mix")

_TRAILING_DIGITS = re.compile(r"(\d+)$")


@dataclass(frozen=True)
class UtteranceRecord:
    utterance_id: str
    speaker_id: str
    path: str
    kind: str = NATURAL
    duration_ratio: float = 1.0
    f0_ratio: float = 1.0
    parent_id: str = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ManifestError(f"{self.utterance_id}: unknown kind {self.kind!r}")
        is_natural = self.kind == NATURAL
        if is_natural and (self.duration_ratio != 1.0 or self.f0_ratio != 1.0
                           or self.parent_id is not None):
            raise ManifestError(
                f"{self.utterance_id}: natural records must have unit ratios and no parent"
            )
        if not is_natural and self.parent_id is None:
            raise ManifestError(f"{self.utterance_id}: augmented record needs a parent_id")

    @property
    def is_natural(self) -> bool:
        return self.kind == NATURAL


@dataclass
class Manifest:
    records: list = field(default_factory=list)
    corpus: str = "corpus"
    sample_rate: int = 16000

    def __post_init__(self):
        seen = set()
        for r in self.records:
            if r.utterance_id in seen:
                raise ManifestError(f"duplicate utterance_id {r.utterance_id!r}")
            seen.add(r.utterance_id)
        self._by_id = {r.utterance_id: r for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __contains__(self, utterance_id: str) -> bool:
        return utterance_id in self._by_id

    def get(self, utterance_id: str) -> UtteranceRecord:
        return self._by_id[utterance_id]

    def speakers(self) -> list:
        return _first_seen(r.speaker_id for r in self.records)

    def naturals(self) -> list:
        return [r for r in self.records if r.is_natural]

    def require_parents(self, parents: "Manifest" = None) -> None:
        """Check every augmented record's parent resolves to a natural record,
        in this manifest or the supplementary one."""
        for r in self.records:
            if r.is_natural:
                continue
            parent = self._by_id.get(r.parent_id)
            if parent is None and parents is not None:
                parent = parents._by_id.get(r.parent_id)
            if parent is None:
                raise ManifestError(f"{r.utterance_id}: parent {r.parent_id!r} not found")
            if not parent.is_natural:
                raise ManifestError(f"{r.utterance_id}: parent {r.parent_id!r} is not natural")


def save_manifest(manifest: Manifest, path) -> None:
    """JSON-lines: one metadata header line, then one line per record."""
    lines = [json.dumps({"corpus": manifest.corpus, "sample_rate": manifest.sample_rate},
                        ensure_ascii=False, separators=(",", ":"))]
    for r in manifest:
        obj = {
            "utterance_id": r.utterance_id,
            "speaker_id": r.speaker_id,
            "path": r.path,
            "kind": r.kind,
            "duration_ratio": r.duration_ratio,
            "f0_ratio": r.f0_ratio,
            "parent_id": r.parent_id,
        }
        lines.append(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path) -> Manifest:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise ManifestError(f"{path}: empty manifest file")
    try:
        meta = json.loads(lines[0])
        corpus, sample_rate = meta["corpus"], meta["sample_rate"]
        if isinstance(sample_rate, bool):
            raise TypeError
        sample_rate = int(sample_rate)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}:1: {exc}") from None
    except (KeyError, TypeError, ValueError):
        raise ManifestError(
            f"{path}:1: header must carry corpus and an integer sample_rate"
        ) from None
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ManifestError("record must be a JSON object")
            names = {key: obj[key] for key in ("utterance_id", "speaker_id", "path")}
            names["parent_id"] = obj.get("parent_id")
            for key, value in names.items():
                if not (isinstance(value, str) or (key == "parent_id" and value is None)):
                    raise ManifestError(f"{key} must be a string, got {value!r}")
            records.append(UtteranceRecord(
                **names,
                kind=obj.get("kind", NATURAL),
                duration_ratio=float(obj.get("duration_ratio", 1.0)),
                f0_ratio=float(obj.get("f0_ratio", 1.0)),
            ))
        except KeyError as exc:
            raise ManifestError(f"{path}:{lineno}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{path}:{lineno}: {exc}") from None
    return Manifest(records, corpus=corpus, sample_rate=sample_rate)


def _utterance_number(utterance_id: str) -> int:
    m = _TRAILING_DIGITS.search(utterance_id)
    if m is None:
        raise ManifestError(
            f"{utterance_id!r}: parallel selection needs a trailing utterance number"
        )
    return int(m.group(1))


def select_subset(manifest: Manifest, per_speaker: int, seed: int,
                  parallel: bool = True) -> Manifest:
    """Seeded subset of natural utterances, per_speaker for every speaker.

    With parallel=True a single draw of utterance numbers (the trailing
    digits of each utterance_id) is applied to all speakers, so every
    speaker contributes the same prompts; otherwise each speaker is drawn
    independently. Record order follows the input manifest.
    """
    if per_speaker < 1:
        raise InsufficientUtterancesError(f"per_speaker must be >= 1, got {per_speaker}")
    naturals = manifest.naturals()
    by_speaker = {}
    for r in naturals:
        by_speaker.setdefault(r.speaker_id, []).append(r)
    if not by_speaker:
        raise InsufficientUtterancesError("manifest has no natural records")

    rng = rng_for(seed, "dataset.select_subset")
    keep = set()
    if parallel:
        number_sets = []
        for speaker, recs in by_speaker.items():
            numbers = {}
            for r in recs:
                n = _utterance_number(r.utterance_id)
                if n in numbers:
                    raise ManifestError(
                        f"speaker {speaker!r}: utterance number {n} appears twice"
                    )
                numbers[n] = r.utterance_id
            number_sets.append(numbers)
        shared = sorted(set.intersection(*[set(d) for d in number_sets]))
        if len(shared) < per_speaker:
            raise InsufficientUtterancesError(
                f"only {len(shared)} utterance numbers shared across speakers, "
                f"need {per_speaker}"
            )
        chosen = set(rng.choice(shared, size=per_speaker, replace=False).tolist())
        for numbers in number_sets:
            keep.update(uid for n, uid in numbers.items() if n in chosen)
    else:
        for speaker in sorted(by_speaker):
            ids = sorted(r.utterance_id for r in by_speaker[speaker])
            if len(ids) < per_speaker:
                raise InsufficientUtterancesError(
                    f"speaker {speaker!r} has {len(ids)} naturals, need {per_speaker}"
                )
            picks = rng.choice(len(ids), size=per_speaker, replace=False)
            keep.update(ids[int(i)] for i in picks)

    selected = [r for r in naturals if r.utterance_id in keep]
    return Manifest(selected, corpus=manifest.corpus, sample_rate=manifest.sample_rate)


class AugmentationJob(NamedTuple):
    parent: UtteranceRecord
    kind: str
    duration_ratio: float
    f0_ratio: float


def plan_augmentation(manifest: Manifest, recipe: str) -> list:
    """Expand a manifest of naturals into per-utterance augmentation jobs.

    up_down: 4 speed-change jobs (ratio stored in both fields, since speed
    moves duration and F0 together); psola_dur: 7 duration jobs; psola_f0:
    7 F0 jobs; psola_mix: 4 single-axis jobs (durations 1.3, 0.8 and F0
    factors 0.8, 1.2).
    """
    if recipe not in RECIPES:
        raise InvalidParamsError(f"unknown recipe {recipe!r}, expected one of {RECIPES}")
    for r in manifest:
        if not r.is_natural:
            raise NonNaturalInputError(f"{r.utterance_id}: cannot augment a {r.kind} record")

    jobs = []
    for r in manifest:
        if recipe == "up_down":
            jobs.extend(AugmentationJob(r, RESAMPLED, s, s) for s in SPEED_RATIOS)
        elif recipe == "psola_dur":
            jobs.extend(AugmentationJob(r, PSOLA_DUR, d, 1.0) for d in PSOLA_DUR_RATIOS)
        elif recipe == "psola_f0":
            jobs.extend(AugmentationJob(r, PSOLA_F0, 1.0, f) for f in PSOLA_F0_RATIOS)
        else:
            jobs.extend(AugmentationJob(r, PSOLA_MIX, d, f) for d, f in PSOLA_MIX_JOBS)
    return jobs


def _ratio_tag(value: float) -> str:
    return f"{value:g}"


def job_output_name(job: AugmentationJob) -> str:
    return (f"{job.parent.utterance_id}__{job.kind}"
            f"_{_ratio_tag(job.duration_ratio)}_{_ratio_tag(job.f0_ratio)}")


def _once(fn):
    """Call fn on first use only; later uses return its value or re-raise
    its error."""
    memo = []

    def call():
        if not memo:
            try:
                memo.append((fn(), None))
            except Exception as exc:  # noqa: BLE001 - re-raised to every caller
                memo.append((None, exc))
        value, error = memo[0]
        if error is not None:
            raise error
        return value

    return call


def read_utterance(record: UtteranceRecord, sample_rate: int):
    """Read a record's WAV, which must be at the manifest's sample_rate."""
    clip = read_wav(record.path)
    if clip.sample_rate != sample_rate:
        raise ManifestError(f"{record.utterance_id}: WAV is {clip.sample_rate} Hz, "
                            f"manifest says {sample_rate} Hz")
    return clip


def _output_length(job: AugmentationJob, n_samples: int) -> int:
    """Samples in the output of a job whose parent has n_samples."""
    if job.kind == RESAMPLED:
        return speed_change_length(n_samples, job.duration_ratio)
    return synthesis_length(n_samples, job.duration_ratio)


def _is_complete(out_path: Path, sample_rate: int, n_samples: int) -> bool:
    """Whether an existing output's header says it is whole: a readable
    16-bit mono WAV at sample_rate whose data holds exactly n_samples."""
    try:
        return read_wav_header(out_path) == (sample_rate, n_samples)
    except (SpkraugError, OSError):
        return False


def _run_parent(parent, jobs, audio_root, sample_rate, records, failures) -> None:
    """Write the missing or incomplete outputs of consecutive jobs that share
    a parent, appending one record or failure dict per job.

    An existing output is kept when its header shows the rate and length the
    job would write (the parent's length comes from the parent's header).
    The parent WAV is read at most once and analysed at most once, and only
    when an output is written; an error there fails every job that needed it.
    """
    parent_length = _once(lambda: read_wav_header(parent.path)[1])
    clip = _once(lambda: read_utterance(parent, sample_rate))
    analysis = _once(lambda: analyse(clip()))
    for job in jobs:
        out_id = job_output_name(job)
        out_path = Path(audio_root) / parent.speaker_id / f"{out_id}.wav"
        try:
            if not (out_path.exists() and _is_complete(
                    out_path, sample_rate, _output_length(job, parent_length()))):
                if job.kind == RESAMPLED:
                    out = speed_change(clip(), job.duration_ratio)
                else:
                    out = synthesise(analysis(), job.duration_ratio, job.f0_ratio)
                out_path.parent.mkdir(parents=True, exist_ok=True)
                write_wav(out, out_path)
        except Exception as exc:  # noqa: BLE001 - every job failure is reported
            failures.append({"parent_id": parent.utterance_id, "kind": job.kind,
                             "duration_ratio": job.duration_ratio, "f0_ratio": job.f0_ratio,
                             "error": f"{out_id}: {type(exc).__name__}: {exc}"})
        else:
            records.append(UtteranceRecord(out_id, parent.speaker_id, str(out_path), job.kind,
                                           job.duration_ratio, job.f0_ratio,
                                           parent.utterance_id))


def execute_plan(plan, audio_root, corpus: str = "augmented", sample_rate: int = 16000):
    """Run every job, writing WAVs under audio_root/<speaker>/.

    Existing outputs whose headers show the expected rate and length are
    kept as-is (re-running a finished plan reads headers only and writes
    nothing); others are written again. Each parent WAV must be at
    sample_rate, which the returned manifest carries. Failures do not abort
    the batch; returns (manifest of successful records in plan order, list
    of failure dicts).
    """
    records, failures = [], []
    for parent, jobs in groupby(plan, key=lambda job: job.parent):
        _run_parent(parent, jobs, audio_root, sample_rate, records, failures)
    return Manifest(records, corpus=corpus, sample_rate=sample_rate), failures


def select_best_augmented(naturals: Manifest, augmented: Manifest,
                          embeddings: EmbeddingSet, k: int) -> Manifest:
    """Keep, per natural utterance, its k nearest augmented children.

    Distances are Euclidean in the embedding space; the result contains the
    naturals followed by every kept child, both in manifest order.
    """
    augmented.require_parents(naturals)
    for r in list(naturals) + list(augmented):
        if r.utterance_id not in embeddings:
            raise MissingEmbeddingError(f"no embedding for {r.utterance_id!r}")

    children = {}
    for r in augmented:
        children.setdefault(r.parent_id, []).append(r)

    keep = set()
    for natural in naturals:
        kids = children.get(natural.utterance_id, [])
        if len(kids) < k:
            raise KTooLargeError(
                f"{natural.utterance_id}: has {len(kids)} augmented children, need {k}"
            )
        if not kids:  # reachable with k <= 0 only
            raise EmbeddingFileError("cannot build an embedding set from zero entries")
        child_set = embeddings._subset(c.utterance_id for c in kids)
        keep.update(select_k_nearest(embeddings.get(natural.utterance_id), child_set, k))

    selected = [r for r in augmented if r.utterance_id in keep]
    return Manifest(list(naturals) + selected, corpus=naturals.corpus,
                    sample_rate=naturals.sample_rate)


def generate_eer_pairs(eval_manifest: Manifest, natural_pool: Manifest, seed: int) -> list:
    """Two trials per evaluated utterance: one genuine, one impostor.

    The genuine partner is a seeded uniform draw from the same speaker's
    naturals; the impostor partner comes from a uniformly drawn different
    speaker. Scores are left unset.
    """
    pool_by_speaker = {}
    for r in natural_pool:
        if r.is_natural:
            pool_by_speaker.setdefault(r.speaker_id, []).append(r.utterance_id)
    for ids in pool_by_speaker.values():
        ids.sort()
    speakers = sorted(pool_by_speaker)
    if len(speakers) < 2:
        raise InsufficientPoolError(f"need naturals from >= 2 speakers, have {len(speakers)}")

    rng = rng_for(seed, "dataset.generate_eer_pairs")
    pairs = []
    for r in eval_manifest:
        own = pool_by_speaker.get(r.speaker_id)
        if not own:
            raise InsufficientPoolError(f"no natural pool utterances for {r.speaker_id!r}")
        same_id = own[int(rng.integers(len(own)))]
        others = [s for s in speakers if s != r.speaker_id]
        other_speaker = others[int(rng.integers(len(others)))]
        other_ids = pool_by_speaker[other_speaker]
        diff_id = other_ids[int(rng.integers(len(other_ids)))]
        pairs.append(ScoredPair(r.utterance_id, same_id, True))
        pairs.append(ScoredPair(r.utterance_id, diff_id, False))
    return pairs
