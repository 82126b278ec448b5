"""Corpus manifests and the augmentation workflow.

A manifest is a JSON-lines file: one metadata header line, then one record
per line. Records are either natural recordings or augmented derivatives
(resampled speed changes or PSOLA modifications) that point back at their
natural parent.
"""

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import (DEFAULT_SAMPLE_RATE, _check_id, _check_rate, _check_ratio, _text_lines,
                       _write_lines, read_wav, read_wav_header, speed_change, speed_change_length,
                       write_wav)
from .embedding import EmbeddingSet, _row_dots, _row_index, select_k_nearest
from .errors import SpkraugError
from .metrics import _draw_trials
from .psola import analyse, synthesis_length, synthesise
from .rng import rng_for

NATURAL = "natural"
RESAMPLED = "resampled"
PSOLA_DUR = "psola_dur"
PSOLA_F0 = "psola_f0"
PSOLA_MIX = "psola_mix"

# ratio sets applied per natural utterance, one job per value
SPEED_RATIOS = (0.95, 0.975, 1.025, 1.05)
PSOLA_DUR_RATIOS = (0.85, 0.90, 0.95, 1.05, 1.10, 1.15, 1.20)
PSOLA_F0_RATIOS = (0.70, 0.80, 0.90, 1.05, 1.10, 1.20, 1.50)
PSOLA_MIX_JOBS = ((1.3, 1.0), (0.8, 1.0), (1.0, 0.8), (1.0, 1.2))
# `augment` recipe -> (output kind, one (duration_ratio, f0_ratio) pair per job).
# A speed change by r stores r in both fields: its output lasts about n / r
# samples (not n * r, as a PSOLA duration_ratio would mean) and its F0 is
# multiplied by r
RECIPE_JOBS = {
    "resample": (RESAMPLED, tuple((s, s) for s in SPEED_RATIOS)),
    "psola-dur": (PSOLA_DUR, tuple((d, 1.0) for d in PSOLA_DUR_RATIOS)),
    "psola-f0": (PSOLA_F0, tuple((1.0, f) for f in PSOLA_F0_RATIOS)),
    "psola-mix": (PSOLA_MIX, PSOLA_MIX_JOBS),
}
KINDS = (NATURAL, *(kind for kind, _ in RECIPE_JOBS.values()))

_TRAILING_DIGITS = re.compile(r"(\d+)$")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_text(field: str, value) -> None:
    """value, when it is a string a file name and UTF-8 text can hold: no NUL
    and no lone surrogate (the ASCII test spares almost every value the regex)."""
    if not isinstance(value, str):
        raise SpkraugError(f"{field} must be a string, got {value!r}")
    if "\x00" in value or (not value.isascii() and _SURROGATE.search(value)):
        raise SpkraugError(f"{field} must hold no NUL or lone surrogate, got {value!r}")


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
        _check_id("utterance_id", self.utterance_id)
        _check_id("speaker_id", self.speaker_id)
        _check_text("path", self.path)
        if self.parent_id is not None:
            _check_id("parent_id", self.parent_id)
        for key in ("duration_ratio", "f0_ratio"):
            # frozen: set the checked float through object.__setattr__
            object.__setattr__(self, key, _check_ratio(key, getattr(self, key)))
        if self.kind not in KINDS:
            raise SpkraugError(f"{self.utterance_id}: unknown kind {self.kind!r}")
        is_natural = self.kind == NATURAL
        if is_natural and (self.duration_ratio != 1.0 or self.f0_ratio != 1.0
                           or self.parent_id is not None):
            raise SpkraugError(
                f"{self.utterance_id}: natural records must have unit ratios and no parent"
            )
        if not is_natural and self.parent_id is None:
            raise SpkraugError(f"{self.utterance_id}: augmented record needs a parent_id")

    @property
    def is_natural(self) -> bool:
        return self.kind == NATURAL


@dataclass
class Manifest:
    records: list = field(default_factory=list)
    corpus: str = "corpus"
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.sample_rate = _check_rate(self.sample_rate)
        _check_text("corpus", self.corpus)
        _row_index([r.utterance_id for r in self.records])  # raises on a duplicate

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def save_manifest(manifest: Manifest, path) -> None:
    """JSON-lines: one metadata header line, then one line per record."""
    lines = [json.dumps({"corpus": manifest.corpus, "sample_rate": manifest.sample_rate},
                        ensure_ascii=False, separators=(",", ":"))]
    # a record's __dict__ holds its fields in declaration order, the file's key
    # order; dataclasses.asdict gives the same dict ~90x slower (deep copies)
    lines.extend(json.dumps(vars(r), ensure_ascii=False, separators=(",", ":"))
                 for r in manifest)
    text = "\n".join(lines)
    # json.dumps escapes every line break below 0x20 but leaves these raw, and
    # _text_lines splits at them; str.translate is ~30x slower on non-ASCII text
    for c in "\x85\u2028\u2029":
        text = text.replace(c, f"\\u{ord(c):04x}")
    _write_lines(path, [text])


def load_manifest(path) -> Manifest:
    lines = _text_lines(path)
    if not lines:
        raise SpkraugError(f"{path}: empty manifest file")
    lineno, line = lines[0]
    try:
        meta = json.loads(line)
        header = Manifest(corpus=meta["corpus"], sample_rate=meta["sample_rate"])
    except (ValueError, RecursionError) as exc:  # SpkraugError is a ValueError
        raise SpkraugError(f"{path}:{lineno}: {exc}") from None
    except (KeyError, TypeError):
        raise SpkraugError(
            f"{path}:{lineno}: header must carry corpus and an integer sample_rate"
        ) from None
    records, seen = [], set()
    for lineno, line in lines[1:]:
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise SpkraugError("record must be a JSON object")
            record = UtteranceRecord(
                obj["utterance_id"], obj["speaker_id"], obj["path"],
                kind=obj.get("kind", NATURAL),
                duration_ratio=obj.get("duration_ratio", 1.0),
                f0_ratio=obj.get("f0_ratio", 1.0),
                parent_id=obj.get("parent_id"),
            )
            if record.utterance_id in seen:
                raise SpkraugError(f"duplicate utterance_id {record.utterance_id!r}")
            seen.add(record.utterance_id)
            records.append(record)
        except KeyError as exc:
            raise SpkraugError(f"{path}:{lineno}: missing field {exc}") from None
        except (ValueError, RecursionError) as exc:  # SpkraugError is a ValueError
            raise SpkraugError(f"{path}:{lineno}: {exc}") from None
    return Manifest(records, corpus=header.corpus, sample_rate=header.sample_rate)


def _utterance_number(utterance_id: str) -> int:
    m = _TRAILING_DIGITS.search(utterance_id)
    if m is None:
        raise SpkraugError(
            f"{utterance_id!r}: parallel selection needs a trailing utterance number"
        )
    try:
        return int(m.group(1))
    except ValueError:  # past Python's int-string digit limit
        raise SpkraugError(f"{utterance_id!r}: utterance number has too many digits") from None


def select_subset(manifest: Manifest, per_speaker: int, seed: int,
                  parallel: bool = True) -> Manifest:
    """Seeded subset of natural utterances, per_speaker for every speaker.

    With parallel=True a single draw of utterance numbers (the trailing
    digits of each utterance_id) is applied to all speakers, so every
    speaker contributes the same prompts; otherwise each speaker is drawn
    independently. Record order follows the input manifest.
    """
    if per_speaker < 1:
        raise SpkraugError(f"per_speaker must be >= 1, got {per_speaker}")
    naturals = [r for r in manifest if r.is_natural]
    by_speaker = {}
    for r in naturals:
        by_speaker.setdefault(r.speaker_id, []).append(r)
    if not by_speaker:
        raise SpkraugError("manifest has no natural records")

    rng = rng_for(seed, "dataset.select_subset")
    keep = set()
    if parallel:
        number_sets = []
        for speaker, recs in by_speaker.items():
            numbers = {}
            for r in recs:
                n = _utterance_number(r.utterance_id)
                if n in numbers:
                    raise SpkraugError(
                        f"speaker {speaker!r}: utterance number {n} appears twice"
                    )
                numbers[n] = r.utterance_id
            number_sets.append(numbers)
        shared = sorted(set.intersection(*[set(d) for d in number_sets]))
        if len(shared) < per_speaker:
            raise SpkraugError(
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
                raise SpkraugError(
                    f"speaker {speaker!r} has {len(ids)} naturals, need {per_speaker}"
                )
            picks = rng.choice(len(ids), size=per_speaker, replace=False)
            keep.update(ids[int(i)] for i in picks)

    selected = [r for r in naturals if r.utterance_id in keep]
    return Manifest(selected, corpus=manifest.corpus, sample_rate=manifest.sample_rate)


def _output_name(parent, kind: str, duration_ratio: float, f0_ratio: float) -> str:
    return f"{parent.utterance_id}__{kind}_{duration_ratio:g}_{f0_ratio:g}"


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
        raise SpkraugError(f"{record.utterance_id}: WAV is {clip.sample_rate} Hz, "
                            f"manifest says {sample_rate} Hz")
    return clip


def _output_length(kind: str, duration_ratio: float, n_samples: int) -> int:
    """Samples in the output of a job whose parent has n_samples."""
    if kind == RESAMPLED:
        return speed_change_length(n_samples, duration_ratio)
    return synthesis_length(n_samples, duration_ratio)


def _is_complete(out_path: Path, sample_rate: int, n_samples: int) -> bool:
    """Whether an existing output's header says it is whole: a readable
    16-bit mono WAV at sample_rate whose data holds exactly n_samples."""
    try:
        return read_wav_header(out_path) == (sample_rate, n_samples)
    except (SpkraugError, OSError):
        return False


def _check_path_part(field: str, value: str) -> None:
    """value, when it names one entry inside a directory: not '.' or '..',
    and with no path separator."""
    if value in (".", "..") or any(sep and sep in value for sep in ("/", os.sep, os.altsep)):
        raise SpkraugError(f"{field} {value!r} would place an output outside the audio root")


def _naturals_only(manifest: Manifest, action: str) -> None:
    """Refuse the first non-natural record of manifest, naming its id and
    kind: `<id>: cannot <action> a <kind> record`."""
    for r in manifest:
        if not r.is_natural:
            raise SpkraugError(f"{r.utterance_id}: cannot {action} a {r.kind} record")


def _run_parent(parent, kind, ratio_pairs, audio_root, sample_rate, records, failures) -> None:
    """Write the missing or incomplete outputs of one parent's jobs, one per
    (duration_ratio, f0_ratio) pair, appending one record or failure dict per
    job.

    An existing output is kept when its header shows the rate and length the
    job would write (the parent's length comes from the parent's header).
    The parent WAV is read at most once and analysed at most once, and only
    when an output is written; an error there fails every job that needed it.
    So does a speaker_id or parent utterance_id that would lead out of
    audio_root.
    """
    parent_length = _once(lambda: read_wav_header(parent.path)[1])
    clip = _once(lambda: read_utterance(parent, sample_rate))
    analysis = _once(lambda: analyse(clip()))
    for duration_ratio, f0_ratio in ratio_pairs:
        out_id = _output_name(parent, kind, duration_ratio, f0_ratio)
        out_path = Path(audio_root) / parent.speaker_id / f"{out_id}.wav"
        try:
            _check_path_part("speaker_id", parent.speaker_id)
            _check_path_part("utterance_id", parent.utterance_id)
            if not (out_path.exists() and _is_complete(
                    out_path, sample_rate, _output_length(kind, duration_ratio, parent_length()))):
                if kind == RESAMPLED:
                    out = speed_change(clip(), duration_ratio)
                else:
                    out = synthesise(analysis(), duration_ratio, f0_ratio)
                out_path.parent.mkdir(parents=True, exist_ok=True)
                write_wav(out, out_path)
        except Exception as exc:  # noqa: BLE001 - every job failure is reported
            failures.append({"parent_id": parent.utterance_id, "kind": kind,
                             "duration_ratio": duration_ratio, "f0_ratio": f0_ratio,
                             "error": f"{out_id}: {type(exc).__name__}: {exc}"})
        else:
            records.append(UtteranceRecord(out_id, parent.speaker_id, str(out_path), kind,
                                           duration_ratio, f0_ratio, parent.utterance_id))


def execute_plan(manifest: Manifest, recipe: str, audio_root):
    """Run the recipe over a manifest of naturals: one job per parent and per
    (duration_ratio, f0_ratio) pair that RECIPE_JOBS lists for the recipe,
    writing WAVs under audio_root/<speaker>/.

    Existing outputs whose headers show the expected rate and length are
    kept as-is (re-running a finished recipe reads headers only and writes
    nothing); others are written again. Each parent WAV must be at the
    manifest's sample_rate. Failures do not abort the batch; returns (manifest
    of successful records, in parent then ratio order, with the input's
    corpus and sample_rate; list of failure dicts).
    """
    if recipe not in RECIPE_JOBS:
        raise SpkraugError(f"unknown recipe {recipe!r}, expected one of {tuple(RECIPE_JOBS)}")
    _naturals_only(manifest, "augment")
    kind, ratio_pairs = RECIPE_JOBS[recipe]
    records, failures = [], []
    for parent in manifest:
        _run_parent(parent, kind, ratio_pairs, audio_root, manifest.sample_rate, records, failures)
    return Manifest(records, corpus=manifest.corpus, sample_rate=manifest.sample_rate), failures


def select_best_augmented(naturals: Manifest, augmented: Manifest,
                          embeddings: EmbeddingSet, k: int) -> Manifest:
    """Keep, per natural utterance, its k nearest augmented children.

    Distances are Euclidean in the embedding space; the result contains the
    naturals followed by every kept child, both in manifest order. k = 0
    keeps just the naturals; a negative k is an error. `naturals` holds
    natural records only, and each child's parent must be one of them; the
    naturals of `augmented` are skipped. Checks run in this order: k, each
    record of `naturals`, each child's parent, the parents' embeddings, the
    children's embeddings, each natural's count.
    """
    if k < 0:
        raise SpkraugError(f"k must be non-negative, got {k}")
    _naturals_only(naturals, "select children for")
    children = [r for r in augmented if not r.is_natural]
    parents = {r.utterance_id for r in naturals}
    for r in children:
        if r.parent_id not in parents:
            raise SpkraugError(f"{r.utterance_id}: parent {r.parent_id!r} not found")

    diff = embeddings._rows(r.parent_id for r in children)  # one pass: every child vs its parent
    diff -= embeddings._rows(r.utterance_id for r in children)
    scored = {}
    for r, distance in zip(children, np.sqrt(_row_dots(diff, diff)).tolist()):
        scored.setdefault(r.parent_id, []).append((distance, r.utterance_id))

    keep = set()
    for natural in naturals:
        kids = scored.get(natural.utterance_id, [])
        if len(kids) < k:
            raise SpkraugError(
                f"{natural.utterance_id}: has {len(kids)} augmented children, need {k}"
            )
        keep.update(select_k_nearest(kids, k))

    selected = [r for r in augmented if r.utterance_id in keep]
    return Manifest(list(naturals) + selected, corpus=naturals.corpus,
                    sample_rate=naturals.sample_rate)


def generate_eer_pairs(eval_manifest: Manifest, natural_pool: Manifest, seed: int) -> list:
    """Two unscored trials per evaluated utterance, one genuine and one
    impostor, drawn from the pool's naturals (see metrics._draw_trials)."""
    return _draw_trials(((r.utterance_id, r.speaker_id) for r in eval_manifest),
                        ((r.utterance_id, r.speaker_id) for r in natural_pool if r.is_natural),
                        seed)
