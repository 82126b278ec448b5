"""Speaker embeddings: storage, distances, nearest-neighbour selection.

Real systems produce embeddings with a neural speaker-verification model;
this module stores and queries those, and additionally ships a small
deterministic stand-in extractor (mel log-energy statistics) so the whole
pipeline can run self-contained.
"""

import math
from array import array
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .audio_io import AudioClip, _check_id, _text_lines, _write_lines
from .errors import SpkraugError
from .spectral import (
    DEFAULT_FFT_SIZE,
    DEFAULT_FRAME_LENGTH,
    DEFAULT_FRAME_SHIFT,
    _frame_signal,
    _window,
)

STANDIN_MEL_BANDS = 80
MIN_CLIP_SECONDS = 0.2
_LOG_FLOOR = 1e-10
_SMALLEST_NORMAL = np.finfo(np.float64).tiny  # a smaller non-zero |v|^2 is subnormal
_FRAME_BLOCK = 64  # frames per power-spectrum block: bounds each clip's transient memory


class EmbeddingSet:
    """Embeddings of one dimension: `ids` and `speaker_ids` (lists, one per
    row) plus one read-only (n, dimension) float64 `matrix`. A single
    embedding is a 1-D array; `_rows()` is the one lookup by id. Every row is
    finite, its squared norm is normal (so not 0), and 4 times it is finite
    (see _row_defect), the rule load_embeddings reads a file by. An id holds
    no tab, line break or character XML 1.0 forbids."""

    def __init__(self, ids, speaker_ids, matrix):
        ids = [_check_id("utterance_id", uid) for uid in ids]
        speaker_ids = [_check_id("speaker_id", speaker) for speaker in speaker_ids]
        matrix = np.asarray(matrix, dtype=np.float64).view()  # the view's flags are the set's own
        self._index = _row_index(ids)  # utterance_id -> row; a duplicate before a bad row
        if not (matrix.ndim == 2 and matrix.shape[1] >= 1
                and len(ids) == len(speaker_ids) == len(matrix)):
            raise SpkraugError(
                f"{len(ids)} ids and {len(speaker_ids)} speakers for a matrix of shape "
                f"{matrix.shape}: need one of each per row and dimension >= 1"
            )
        defect = _row_defect(matrix)
        if defect:
            raise SpkraugError(f"{ids[defect[0]]}: {defect[1]}")
        matrix.setflags(write=False)
        self.ids = ids
        self.speaker_ids = speaker_ids
        self.dimension = matrix.shape[1]
        self.matrix = matrix

    def __len__(self) -> int:
        return len(self.ids)

    def _rows(self, utterance_ids) -> np.ndarray:
        """Matrix rows of the given ids, in that order; the first id with no
        row is named."""
        try:
            return self.matrix[[self._index[uid] for uid in utterance_ids]]
        except KeyError as e:
            raise SpkraugError(f"no embedding for {e.args[0]!r}") from None


def _row_index(ids) -> dict:
    """utterance_id -> row; raises on the first id seen twice."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) < len(ids):
        raise SpkraugError(f"duplicate utterance_id {ids[_first_repeat(ids)]!r}")
    return index


def _first_repeat(ids):
    """Position of the first id seen before, or None."""
    seen = set()
    for i, uid in enumerate(ids):
        if uid in seen:
            return i
        seen.add(uid)
    return None


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # matmul sums each row as np.dot does; einsum, (a*b).sum(1), norm(axis=1) differ in the last bit
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_defect(matrix: np.ndarray):
    """(row, message) for the first row with non-finite values, a squared norm
    whose 4 times overflows, a subnormal squared norm, or norm 0; else None.
    4|v|^2 bounds every squared distance between two rows (2|a|^2 + 2|b|^2),
    so distances and cosine products of sound rows stay finite; a normal
    |v|^2 keeps the cosine's rounding that of unit rows."""
    with np.errstate(over="ignore", invalid="ignore"):  # one n-vector pass, no n x d temporary
        squares = _row_dots(matrix, matrix)
        bad = ~np.isfinite(4.0 * squares) | (squares < _SMALLEST_NORMAL)
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    if not np.isfinite(matrix[row]).all():
        return row, "embedding has non-finite values"
    if squares[row] == 0.0:
        return row, "zero-norm embedding"
    return row, f"embedding norm too {'small' if squares[row] < _SMALLEST_NORMAL else 'large'}"


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row of `a` with the same row of `b`, equal bit
    for bit to np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)), clipped."""
    if a.shape[1] != b.shape[1]:
        raise SpkraugError(f"embedding dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    na = np.sqrt(_row_dots(a, a))
    nb = np.sqrt(_row_dots(b, b))
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise SpkraugError("cosine similarity undefined for zero-norm vectors")
    return np.clip(_row_dots(a, b) / (na * nb), -1.0, 1.0)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    return float(_cosine_rows(np.reshape(a, (1, -1)), np.reshape(b, (1, -1)))[0])


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) != len(b):
        raise SpkraugError(f"{len(a)} vs {len(b)}")
    return float(np.linalg.norm(np.subtract(a, b)))


def select_k_nearest(scored, k: int) -> list:
    """ids of the k smallest (distance, utterance_id) pairs of `scored`.

    Ties are broken by ascending utterance_id, so the result does not depend
    on the order the pairs come in.
    """
    if not 0 <= k <= len(scored):
        raise SpkraugError(f"k must be in 0..{len(scored)}, got {k}")
    return [uid for _, uid in sorted(scored)[:k]]


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


class _MelProjection(NamedTuple):
    """A mel filterbank stored per bin. Every bin lies in at most two adjacent
    triangular filters: `band[k]` with weight `lower[k]` and `band[k] + 1`
    with weight `upper[k]` (either weight may be 0). `starts` are the first
    bins of the runs of equal `band`, and `bands` the runs' bands."""

    starts: np.ndarray
    bands: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_bands: int


@lru_cache(maxsize=8)
def _mel_projection(n_bands: int, fft_size: int, sample_rate: int) -> _MelProjection:
    """The n_bands triangular mel filters over the fft_size//2 + 1 bins,
    spanning 0..Nyquist, built in one broadcast and stored per bin."""
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(sample_rate / 2.0), n_bands + 2))
    bin_hz = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    fb = np.clip(np.minimum((bin_hz - lo) / (center - lo), (hi - bin_hz) / (hi - center)),
                 0.0, None)
    nonzero = fb > 0
    # a bin's band is its first non-zero filter; a bin in no filter takes its
    # left neighbour's (0 at DC) with zero weights, so `band` never decreases
    band = np.maximum.accumulate(np.where(nonzero.any(axis=0), np.argmax(nonzero, axis=0), 0))
    padded = np.vstack([fb, np.zeros((1, fb.shape[1]))])  # row n_bands: above the top band
    bins = np.arange(fb.shape[1])
    starts = np.flatnonzero(np.diff(band, prepend=-1))
    arrays = (starts, band[starts], padded[band, bins], padded[band + 1, bins])
    for a in arrays:
        a.setflags(write=False)  # cached: every caller gets these same arrays
    return _MelProjection(*arrays, n_bands)


def _mel_energies(power: np.ndarray, projection: _MelProjection) -> np.ndarray:
    """frames x bins power summed into frames x bands mel energies.

    Each band adds its lower-weight bins, then its upper-weight bins, in
    NumPy's own loops: no BLAS call, so the bytes do not depend on the BLAS
    thread count. A band holding no bin reads exactly 0.
    """
    p = projection
    out = np.zeros((len(power), p.n_bands + 1))
    weighted = power * p.lower
    out[:, p.bands] = np.add.reduceat(weighted, p.starts, axis=1)
    np.multiply(power, p.upper, out=weighted)  # one frames x bins temporary, not two
    out[:, p.bands + 1] += np.add.reduceat(weighted, p.starts, axis=1)
    return out[:, :-1]


def _mel_energy_blocks(x: np.ndarray, sample_rate: int):
    """Mel energies of the power spectrum of x, framed as magnitude_spectrogram
    frames it, yielded _FRAME_BLOCK frames at a time."""
    frames = _frame_signal(x, DEFAULT_FRAME_LENGTH, DEFAULT_FRAME_SHIFT)
    win = _window(DEFAULT_FRAME_LENGTH)
    projection = _mel_projection(STANDIN_MEL_BANDS, DEFAULT_FFT_SIZE, sample_rate)
    for start in range(0, len(frames), _FRAME_BLOCK):
        power = np.abs(np.fft.rfft(frames[start:start + _FRAME_BLOCK] * win,
                                   n=DEFAULT_FFT_SIZE, axis=1))
        power *= power
        yield _mel_energies(power, projection)


def extract_standin_embedding(clip: AudioClip) -> np.ndarray:
    """Deterministic non-neural embedding: mel log-energy statistics.

    The waveform is RMS-normalized (so overall gain cancels), analyzed into
    80 mel-band log power energies, and summarized by each band's mean and
    standard deviation over time. The 160-dim result is L2-normalized.
    """
    if clip.duration_seconds < MIN_CLIP_SECONDS:
        raise SpkraugError(
            f"need at least {MIN_CLIP_SECONDS} s, got {clip.duration_seconds:.3f} s"
        )
    x = clip.samples
    rms = np.sqrt(np.mean(x * x))
    if rms > 0:
        x = x / rms
    logs = np.concatenate([np.log(energies + _LOG_FLOOR)
                           for energies in _mel_energy_blocks(x, clip.sample_rate)])
    feats = np.concatenate([logs.mean(axis=0), logs.std(axis=0)])
    norm = math.hypot(*feats)
    if norm == 0.0:
        raise SpkraugError("degenerate clip produced an all-zero feature vector")
    return feats / norm


def _tsv_rows(embeddings: EmbeddingSet, matrix: np.ndarray) -> list:
    """One `id<TAB>speaker<TAB>values` line per row of matrix, which pairs
    with the set's entries; values are written with repr, so they read back
    bit for bit."""
    rows = zip(embeddings.ids, embeddings.speaker_ids, matrix.tolist())
    return [f"{uid}\t{speaker}\t" + "\t".join(map(repr, values)) for uid, speaker, values in rows]


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write the TSV format: `#dim=D` header then id, speaker, D floats per row."""
    _write_lines(path, [f"#dim={embeddings.dimension}", *_tsv_rows(embeddings, embeddings.matrix)])


# the longest float64 row a NumPy shape can hold: its size in bytes fits an intp
_MAX_DIMENSION = int(np.iinfo(np.intp).max) // 8


def load_embeddings(path) -> EmbeddingSet:
    """Read the TSV format into one matrix, row by row.

    Each defect names its line: a wrong field count, a refused id (see
    _check_id), a non-numeric value, non-finite values, a norm too large or
    too small (see _row_defect) or an all-zero row; the first defective line
    wins, and a repeated utterance_id is reported at its second line only
    when every line is sound.
    """
    lines = _text_lines(path)
    if not lines or lines[0][0] != 1 or not lines[0][1].startswith("#dim="):  # line 1, not blank
        raise SpkraugError(f"{path}: missing #dim= header")
    header = lines[0][1]
    try:
        dim = int(header[5:])
    except ValueError:
        raise SpkraugError(f"{path}: unparseable header {header!r}") from None
    if not 0 < dim <= _MAX_DIMENSION:
        raise SpkraugError(f"{path}: dimension must be in [1, {_MAX_DIMENSION}], got {dim}")
    values = array("d")  # grows with the rows read, whatever the header claims
    ids, speaker_ids, linenos = [], [], []
    stop = None  # the first line that does not parse, and why
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        try:
            if len(parts) != 2 + dim:
                raise SpkraugError(f"expected {2 + dim} fields, found {len(parts)}")
            ids.append(_check_id("utterance_id", parts[0]))
            speaker_ids.append(_check_id("speaker_id", parts[1]))
            try:
                values.fromlist(list(map(float, parts[2:])))
            except ValueError:
                raise SpkraugError("non-numeric value") from None
        except SpkraugError as exc:
            stop = lineno, exc
            break
        linenos.append(lineno)
    matrix = np.frombuffer(values).reshape(-1, dim)
    defect = _row_defect(matrix)  # a row before the stop comes first
    if defect:
        stop = linenos[defect[0]], defect[1]
    elif not stop and (repeat := _first_repeat(ids)) is not None:
        stop = linenos[repeat], f"duplicate utterance_id {ids[repeat]!r}"
    if stop:
        raise SpkraugError(f"{path}:{stop[0]}: {stop[1]}")
    return EmbeddingSet(ids, speaker_ids, matrix)
