"""Speaker embeddings: storage, distances, nearest-neighbour selection.

Real systems produce embeddings with a neural speaker-verification model;
this module stores and queries those, and additionally ships a small
deterministic stand-in extractor (mel log-energy statistics) so the whole
pipeline can run self-contained.
"""

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .audio_io import AudioClip
from .errors import (
    ClipTooShortError,
    DimensionMismatchError,
    EmbeddingFileError,
    KTooLargeError,
    UnknownSpeakerError,
    ZeroNormError,
)
from .spectral import magnitude_spectrogram

STANDIN_MEL_BANDS = 80
STANDIN_DIMENSION = 2 * STANDIN_MEL_BANDS
MIN_CLIP_SECONDS = 0.2
_LOG_FLOOR = 1e-10


@dataclass
class EmbeddingVector:
    utterance_id: str
    speaker_id: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or len(self.values) == 0:
            raise DimensionMismatchError("values must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.values)):
            raise ZeroNormError(f"{self.utterance_id}: embedding has non-finite values")

    @property
    def dimension(self) -> int:
        return len(self.values)


class EmbeddingSet:
    """Embeddings of one dimension: `ids` and `speaker_ids` (lists, in entry
    order) plus one read-only (n, dimension) float64 `matrix`. `get()` and
    iteration yield EmbeddingVector views of its rows."""

    def __init__(self, dimension: int, entries=()):
        entries = list(entries)
        ids = [e.utterance_id for e in entries]
        for i, e in enumerate(entries):
            if e.dimension != dimension:
                _row_index(ids[:i])  # a duplicate before this entry is reported first
                raise DimensionMismatchError(
                    f"{e.utterance_id}: dimension {e.dimension}, set is {dimension}"
                )
        matrix = np.stack([e.values for e in entries]) if entries else np.empty((0, dimension))
        self._adopt(ids, [e.speaker_id for e in entries], matrix)

    @classmethod
    def _from_matrix(cls, ids, speaker_ids, matrix: np.ndarray) -> "EmbeddingSet":
        """A set over the rows of a float64 (n, dimension) matrix, built
        without an EmbeddingVector per row."""
        embeddings = cls.__new__(cls)
        embeddings._adopt(ids, speaker_ids, matrix)
        return embeddings

    def _adopt(self, ids, speaker_ids, matrix: np.ndarray) -> None:
        self._index = _row_index(ids)  # utterance_id -> row
        self.ids = list(ids)
        self.speaker_ids = list(speaker_ids)
        self.dimension = matrix.shape[1]
        self.matrix = matrix
        self.matrix.setflags(write=False)

    @classmethod
    def from_entries(cls, entries) -> "EmbeddingSet":
        entries = list(entries)
        if not entries:
            raise EmbeddingFileError("cannot build an embedding set from zero entries")
        return cls(entries[0].dimension, entries)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(self._row, range(len(self.ids)))

    def __contains__(self, utterance_id: str) -> bool:
        return utterance_id in self._index

    def get(self, utterance_id: str) -> EmbeddingVector:
        return self._row(self._index[utterance_id])

    def speakers(self) -> list:
        return _first_seen(self.speaker_ids)

    def _row(self, i: int) -> EmbeddingVector:
        return EmbeddingVector(self.ids[i], self.speaker_ids[i], self.matrix[i])

    def _rows(self, utterance_ids) -> np.ndarray:
        """Matrix rows of the given ids, in that order."""
        return self.matrix[[self._index[uid] for uid in utterance_ids]]

    def _subset(self, utterance_ids) -> "EmbeddingSet":
        """The given ids' rows as a new set, in that order."""
        rows = [self._index[uid] for uid in utterance_ids]
        return EmbeddingSet._from_matrix([self.ids[i] for i in rows],
                                         [self.speaker_ids[i] for i in rows], self.matrix[rows])


def _row_index(ids) -> dict:
    """utterance_id -> row; raises on the first id seen twice."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) < len(ids):
        seen = set()
        for uid in ids:
            if uid in seen:
                raise EmbeddingFileError(f"duplicate utterance_id {uid!r}")
            seen.add(uid)
    return index


def _first_seen(items) -> list:
    """Distinct items in first-seen order."""
    return list(dict.fromkeys(items))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # matmul sums each row as np.dot does; einsum, (a*b).sum(1), norm(axis=1) differ in the last bit
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row of `a` with the same row of `b`, equal bit
    for bit to np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)), clipped."""
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(f"{a.shape[1]} vs {b.shape[1]}")
    na = np.sqrt(_row_dots(a, a))
    nb = np.sqrt(_row_dots(b, b))
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ZeroNormError("cosine similarity undefined for zero-norm vectors")
    return np.clip(_row_dots(a, b) / (na * nb), -1.0, 1.0)


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    return float(_cosine_rows(a.values[None], b.values[None])[0])


def euclidean_distance(a: EmbeddingVector, b: EmbeddingVector) -> float:
    if a.dimension != b.dimension:
        raise DimensionMismatchError(f"{a.dimension} vs {b.dimension}")
    return float(np.linalg.norm(a.values - b.values))


def select_k_nearest(natural: EmbeddingVector, candidates: EmbeddingSet, k: int) -> list:
    """ids of the k candidates closest to `natural` in Euclidean distance.

    Ties are broken by ascending utterance_id, so the result does not depend
    on the order candidates were loaded in.
    """
    if k > len(candidates):
        raise KTooLargeError(f"k={k} but only {len(candidates)} candidates")
    if k < 0:
        raise KTooLargeError(f"k must be non-negative, got {k}")
    if natural.dimension != candidates.dimension:
        raise DimensionMismatchError(f"{natural.dimension} vs {candidates.dimension}")
    diff = natural.values - candidates.matrix
    ranked = sorted(zip(np.sqrt(_row_dots(diff, diff)).tolist(), candidates.ids))
    return [uid for _, uid in ranked[:k]]


def speaker_centroid(embeddings: EmbeddingSet, speaker_id: str) -> EmbeddingVector:
    """Arithmetic mean of one speaker's embeddings."""
    rows = embeddings.matrix[[s == speaker_id for s in embeddings.speaker_ids]]
    if len(rows) == 0:
        raise UnknownSpeakerError(f"no embeddings for speaker {speaker_id!r}")
    return EmbeddingVector(f"centroid:{speaker_id}", speaker_id, rows.mean(axis=0))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _mel_filterbank_cached(n_bands: int, fft_size: int, sample_rate: int) -> np.ndarray:
    n_bins = fft_size // 2 + 1
    edges_hz = _mel_to_hz(np.linspace(0.0, _hz_to_mel(sample_rate / 2.0), n_bands + 2))
    bin_hz = np.arange(n_bins) * sample_rate / fft_size
    fb = np.zeros((n_bands, n_bins))
    for b in range(n_bands):
        lo, center, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        fb[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.setflags(write=False)
    return fb


def mel_filterbank(n_bands: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters, n_bands x (fft_size//2 + 1), spanning 0..Nyquist."""
    return _mel_filterbank_cached(int(n_bands), int(fft_size), int(sample_rate)).copy()


def extract_standin_embedding(clip: AudioClip, utterance_id: str = "",
                              speaker_id: str = "") -> EmbeddingVector:
    """Deterministic non-neural embedding: mel log-energy statistics.

    The waveform is RMS-normalized (so overall gain cancels), analyzed into
    80 mel-band log power energies, and summarized by each band's mean and
    standard deviation over time. The 160-dim result is L2-normalized.
    """
    if clip.duration_seconds < MIN_CLIP_SECONDS:
        raise ClipTooShortError(
            f"need at least {MIN_CLIP_SECONDS} s, got {clip.duration_seconds:.3f} s"
        )
    x = clip.samples
    rms = np.sqrt(np.mean(x * x))
    if rms > 0:
        x = x / rms
    spec = magnitude_spectrogram(AudioClip(x, clip.sample_rate))
    fb = _mel_filterbank_cached(STANDIN_MEL_BANDS, spec.fft_size, clip.sample_rate)
    energies = spec.magnitudes ** 2 @ fb.T  # frames x bands
    logs = np.log(energies + _LOG_FLOOR)
    feats = np.concatenate([logs.mean(axis=0), logs.std(axis=0)])
    norm = np.linalg.norm(feats)
    if norm == 0.0:
        raise ZeroNormError("degenerate clip produced an all-zero feature vector")
    return EmbeddingVector(utterance_id, speaker_id, feats / norm)


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write the TSV format: `#dim=D` header then id, speaker, D floats per row."""
    lines = [f"#dim={embeddings.dimension}"]
    rows = zip(embeddings.ids, embeddings.speaker_ids, embeddings.matrix.tolist())
    for uid, speaker, values in rows:
        vals = "\t".join(map(repr, values))
        lines.append(f"{uid}\t{speaker}\t{vals}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_embeddings(path) -> EmbeddingSet:
    """Read the TSV format into one matrix, row by row.

    A defective line raises on its own: a wrong field count or a non-numeric
    value as EmbeddingFileError, non-finite values as ZeroNormError, an
    all-zero row as EmbeddingFileError; the first defective line wins, and a
    duplicate utterance_id is reported only when every line is sound.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#dim="):
        raise EmbeddingFileError(f"{path}: missing #dim= header")
    try:
        dim = int(lines[0][5:])
    except ValueError:
        raise EmbeddingFileError(f"{path}: unparseable header {lines[0]!r}") from None
    if dim < 1:
        raise EmbeddingFileError(f"{path}: dimension must be positive, got {dim}")
    # a row of the right width holds at least dim + 1 characters, which bounds
    # the allocation by the file size whatever the header claims
    matrix = np.empty((min(len(lines) - 1, len(text) // (dim + 1)), dim))
    ids, speaker_ids, linenos = [], [], []

    def raise_row_errors():
        """Raise for the first parsed row with non-finite values or zero norm."""
        parsed = matrix[:len(ids)]
        bad = ~np.isfinite(parsed).all(axis=1)
        # np.linalg.norm(v) is sqrt(np.dot(v, v)), and _row_dots sums as np.dot does
        bad |= _row_dots(parsed, parsed) == 0.0
        if bad.any():
            row = int(np.argmax(bad))
            if not np.isfinite(parsed[row]).all():
                raise ZeroNormError(f"{ids[row]}: embedding has non-finite values")
            raise EmbeddingFileError(f"{path}:{linenos[row]}: zero-norm embedding")

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 + dim:
            raise_row_errors()
            raise EmbeddingFileError(
                f"{path}:{lineno}: expected {2 + dim} fields, found {len(parts)}"
            )
        try:
            matrix[len(ids)] = list(map(float, parts[2:]))
        except ValueError:
            raise_row_errors()
            raise EmbeddingFileError(f"{path}:{lineno}: non-numeric value") from None
        ids.append(parts[0])
        speaker_ids.append(parts[1])
        linenos.append(lineno)
    raise_row_errors()
    if len(ids) < len(matrix):  # blank lines
        matrix = matrix[:len(ids)].copy()
    return EmbeddingSet._from_matrix(ids, speaker_ids, matrix)
