"""Pitch tracking and time-domain pitch-synchronous overlap-add (TD-PSOLA).

Duration and F0 are modified independently. `analyse` tracks F0 and places
pitch marks once per clip; `synthesise` then, per ratio pair, cuts grains of
two local periods at those marks, re-selects them along a time-scaled axis
and overlap-adds them at a spacing of period / f0_ratio. Unvoiced stretches
keep their original spacing so noise is never pitch-shifted.

Synthesis runs in two passes. The grain schedule is inherently sequential
(each step depends on the last grain's hop), so it walks plain Python lists
with `bisect`. Windowing and overlap-add then cover every grain of the job at
once: one `np.bincount` sums the windowed grains and one sums the windows,
over indices laid out grain after grain, so each output sample receives its
terms in schedule order and the result equals a grain-by-grain loop bit for
bit.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip
from .errors import (
    EmptyClipError,
    InvalidRangeError,
    InvalidRatioError,
    NoPitchMarksError,
)

F0_WINDOW_SECONDS = 0.025
F0_HOP_SECONDS = 0.010
UNVOICED_STEP_SECONDS = 0.010
VOICING_THRESHOLD = 0.5
DEFAULT_F0_MIN = 60.0
DEFAULT_F0_MAX = 400.0

MIN_RATIO = 0.5
MAX_RATIO = 2.0


@dataclass
class PitchTrack:
    """Per-frame F0 estimates; 0 Hz marks an unvoiced frame."""

    frame_shift: float  # seconds between frame starts
    f0_values: np.ndarray
    voicing: np.ndarray

    def __post_init__(self):
        self.f0_values = np.asarray(self.f0_values, dtype=np.float64)
        self.voicing = np.asarray(self.voicing, dtype=bool)
        if self.f0_values.shape != self.voicing.shape or self.f0_values.ndim != 1:
            raise InvalidRangeError("f0_values and voicing must be matching 1-D arrays")
        if np.any((self.f0_values == 0) != ~self.voicing):
            raise InvalidRangeError("f0 must be 0 exactly on unvoiced frames")

    @property
    def n_frames(self) -> int:
        return len(self.f0_values)


@dataclass
class PitchMarks:
    """Strictly increasing sample indices, one per period in voiced spans."""

    positions: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if self.positions.ndim != 1:
            raise InvalidRangeError("positions must be 1-D")
        if len(self.positions) > 1 and np.any(np.diff(self.positions) <= 0):
            raise InvalidRangeError("positions must be strictly increasing")

    def __len__(self) -> int:
        return len(self.positions)


def estimate_f0(clip: AudioClip, f0_min: float = DEFAULT_F0_MIN,
                f0_max: float = DEFAULT_F0_MAX) -> PitchTrack:
    """Autocorrelation pitch tracker: 25 ms frames every 10 ms.

    Each frame is mean-removed and its unbiased normalized autocorrelation
    searched over lags for [f0_min, f0_max]; the peak is refined by parabolic
    interpolation, and the frame is voiced when the peak is >= 0.5.
    """
    sr = clip.sample_rate
    if not (0 < f0_min < f0_max < sr / 4):
        raise InvalidRangeError(
            f"need 0 < f0_min < f0_max < sample_rate/4, got [{f0_min}, {f0_max}] at {sr} Hz"
        )
    win = int(round(F0_WINDOW_SECONDS * sr))
    hop = int(round(F0_HOP_SECONDS * sr))
    x = clip.samples
    if len(x) < win:
        return PitchTrack(F0_HOP_SECONDS, np.zeros(0), np.zeros(0, dtype=bool))
    frames = sliding_window_view(x, win)[::hop]
    frames = frames - frames.mean(axis=1, keepdims=True)

    # autocorrelation of every frame at once, lags 0..win-1
    nfft = 1 << int(np.ceil(np.log2(2 * win)))
    spectra = np.fft.rfft(frames, n=nfft, axis=1)
    acf = np.fft.irfft(spectra * np.conj(spectra), n=nfft, axis=1)[:, :win]
    acf /= (win - np.arange(win))[None, :]  # unbiased: no taper bias at the peak

    lag_min = max(2, int(np.ceil(sr / f0_max)))
    lag_max = min(win - 2, int(np.floor(sr / f0_min)))
    if lag_min >= lag_max:
        raise InvalidRangeError(f"search range [{f0_min}, {f0_max}] leaves no usable lags")

    energy = acf[:, 0]
    searchable = energy > 1e-12
    norm = np.ones_like(acf)
    norm[searchable] = acf[searchable] / energy[searchable, None]

    region = norm[:, lag_min:lag_max + 1]
    best = region.max(axis=1)
    voiced = searchable & (best >= VOICING_THRESHOLD)

    # The ACF peaks at every multiple of the true period; prefer the shortest
    # lag whose local maximum is nearly as tall as the global one, which keeps
    # period-doubled subharmonics from winning ties.
    is_local_max = (region >= norm[:, lag_min - 1:lag_max]) & \
                   (region >= norm[:, lag_min + 1:lag_max + 2])
    candidate = is_local_max & (region >= 0.9 * best[:, None])
    has_candidate = candidate.any(axis=1)
    peak_off = np.where(has_candidate, np.argmax(candidate, axis=1),
                        np.argmax(region, axis=1))
    peak_lag = peak_off + lag_min

    # parabolic refinement of every voiced peak; a flat or upturned parabola
    # (denominator >= -1e-15) keeps the integer lag
    f0 = np.zeros(len(frames))
    rows = np.flatnonzero(voiced)
    lag = peak_lag[rows]
    left, mid, right = norm[rows, lag - 1], norm[rows, lag], norm[rows, lag + 1]
    denom = left - 2.0 * mid + right
    curved = ~(denom >= -1e-15)
    delta = np.zeros(len(rows))
    delta[curved] = np.clip(0.5 * (left[curved] - right[curved]) / denom[curved], -0.5, 0.5)
    f0[rows] = np.clip(sr / (lag + delta), f0_min, f0_max)

    return PitchTrack(F0_HOP_SECONDS, f0, voiced)


def _track_lookup(track: PitchTrack, sr: int):
    """Map a sample position to the nearest frame's (voiced, f0)."""
    win = int(round(F0_WINDOW_SECONDS * sr))
    hop = int(round(track.frame_shift * sr))

    def lookup(pos: float):
        if track.n_frames == 0:
            return False, 0.0
        i = int(round((pos - win / 2) / hop))
        i = min(max(i, 0), track.n_frames - 1)
        return bool(track.voicing[i]), float(track.f0_values[i])

    return lookup


def place_pitch_marks(clip: AudioClip, track: PitchTrack) -> PitchMarks:
    """Walk the clip placing one mark per period, snapped to waveform maxima.

    Voiced spans advance by the local period and snap each mark to the
    highest sample within a quarter period either side; unvoiced spans fall
    back to a uniform 10 ms grid.
    """
    n = len(clip)
    if n == 0:
        raise EmptyClipError("cannot place pitch marks on an empty clip")
    x = clip.samples
    sr = clip.sample_rate
    step_unvoiced = int(round(UNVOICED_STEP_SECONDS * sr))
    lookup = _track_lookup(track, sr)

    marks = []
    voiced0, f00 = lookup(0)
    if voiced0:
        first_period = int(round(sr / f00))
        pos = int(np.argmax(x[:min(first_period, n)]))
    else:
        pos = 0
    marks.append(pos)

    while True:
        voiced, f0 = lookup(marks[-1])
        if voiced:
            period = sr / f0
            target = marks[-1] + period
            half = period / 4.0
            lo = max(int(np.ceil(target - half)), marks[-1] + 1)
            hi = min(int(np.floor(target + half)), n - 1)
            if lo > hi:
                break
            nxt = lo + int(np.argmax(x[lo:hi + 1]))
        else:
            nxt = marks[-1] + step_unvoiced
            if nxt >= n:
                break
        marks.append(nxt)

    return PitchMarks(np.asarray(marks, dtype=np.int64))


def _grain_window(left: int, right: int) -> np.ndarray:
    """Asymmetric two-period window: sin^2 ramp up, cos^2 ramp down.

    Adjacent grains placed at their native marks sum to exactly one.
    """
    t_rise = np.arange(left) / left
    t_fall = np.arange(right) / right
    return np.concatenate([np.sin(0.5 * np.pi * t_rise) ** 2,
                           np.cos(0.5 * np.pi * t_fall) ** 2])


class PsolaAnalysis(NamedTuple):
    """The ratio-independent half of TD-PSOLA: pitch marks of one clip, the
    local period at each interior mark and whether that mark is voiced."""

    clip: AudioClip
    marks: np.ndarray
    periods: np.ndarray
    voiced: np.ndarray


def analyse(clip: AudioClip, f0_min: float = DEFAULT_F0_MIN,
            f0_max: float = DEFAULT_F0_MAX) -> PsolaAnalysis:
    """Track F0 and place pitch marks once; any number of synthesise calls
    can then reuse the result."""
    track = estimate_f0(clip, f0_min, f0_max)
    marks = place_pitch_marks(clip, track).positions
    if len(marks) < 3:
        raise NoPitchMarksError(
            f"found only {len(marks)} pitch marks; input is shorter than two periods"
        )
    gaps = np.diff(marks)
    # local analysis period per interior mark: mean of the two adjacent gaps
    periods = 0.5 * (gaps[:-1] + gaps[1:])
    # voicing of the frame nearest each interior mark, as _track_lookup finds it
    voiced = np.zeros(len(periods), dtype=bool)
    if track.n_frames:
        sr = clip.sample_rate
        win = int(round(F0_WINDOW_SECONDS * sr))
        hop = int(round(track.frame_shift * sr))
        frame = np.rint((marks[1:-1] - win / 2) / hop).astype(np.int64)
        voiced = track.voicing[np.clip(frame, 0, track.n_frames - 1)]
    return PsolaAnalysis(clip, marks, periods, voiced)


def _grain_schedule(interior: list, hops: list, duration_ratio: float,
                    out_len: int) -> tuple[list, list]:
    """Walk the output axis: at output time s pick the interior mark nearest
    s / duration_ratio, then advance s by that mark's hop.

    Plain lists, no NumPy: the walk is sequential and short per step.
    Returns the chosen mark indices and the rounded output centres.
    """
    last = len(interior) - 1
    chosen, centres = [], []
    s = interior[0] * duration_ratio
    while s < out_len:
        u = s / duration_ratio
        k = bisect_left(interior, u)
        if k == 0:
            j = 0
        elif k > last:
            j = last
        else:
            # ties go to the earlier mark
            j = k - 1 if u - interior[k - 1] <= interior[k] - u else k
        chosen.append(j)
        centres.append(round(s))
        s += hops[j]
    return chosen, centres


def synthesis_length(n_samples: int, duration_ratio: float) -> int:
    """Number of samples synthesise returns for an n_samples clip."""
    return int(round(n_samples * duration_ratio))


def synthesise(analysis: PsolaAnalysis, duration_ratio: float,
               f0_ratio: float) -> AudioClip:
    """Overlap-add the analysed grains for one (duration, F0) ratio pair.

    duration_ratio multiplies the length (1.3 = 30% longer); f0_ratio
    multiplies voiced F0. Output length is round(len * duration_ratio);
    overlap-add is renormalized so the result never exceeds the input peak.
    """
    for name, ratio in (("duration_ratio", duration_ratio), ("f0_ratio", f0_ratio)):
        if not (MIN_RATIO <= ratio <= MAX_RATIO) or not np.isfinite(ratio):
            raise InvalidRatioError(f"{name} must lie in [{MIN_RATIO}, {MAX_RATIO}], got {ratio}")

    clip, marks, periods, voiced_mark = analysis
    x = clip.samples
    out_len = synthesis_length(len(x), duration_ratio)
    hops = np.maximum(np.where(voiced_mark, periods / f0_ratio, periods), 1.0)
    chosen, centres = _grain_schedule(marks[1:-1].tolist(), hops.tolist(),
                                      float(duration_ratio), out_len)
    if not chosen:
        return AudioClip(np.zeros(out_len), clip.sample_rate)

    # grain g spans marks[j]..marks[j + 2] around marks[j + 1], j = chosen[g]
    j = np.asarray(chosen)
    lo, center, hi = marks[j], marks[j + 1], marks[j + 2]
    pairs = list(zip((center - lo).tolist(), (hi - center).tolist()))
    windows = {pair: _grain_window(*pair) for pair in set(pairs)}
    window = np.concatenate([windows[pair] for pair in pairs])

    # every grain sample's source and destination index, grain after grain;
    # the margin keeps destinations of grains at either edge non-negative
    lengths = hi - lo
    first = np.cumsum(lengths) - lengths
    margin = int(np.diff(marks).max()) + 1
    offset = np.arange(len(window))
    src = offset + np.repeat(lo - first, lengths)
    dst = offset + np.repeat(np.asarray(centres) - (center - lo) + margin - first, lengths)

    # bincount adds each sample's terms in index order, i.e. in grain order,
    # exactly as a sequential num[a:b] += grain loop would
    size = out_len + 2 * margin
    num = np.bincount(dst, weights=x[src] * window, minlength=size)
    den = np.bincount(dst, weights=window, minlength=size)
    out = num[margin:margin + out_len] / np.maximum(den[margin:margin + out_len], 0.25)
    return AudioClip(out, clip.sample_rate)


def psola_modify(clip: AudioClip, duration_ratio: float, f0_ratio: float,
                 f0_min: float = DEFAULT_F0_MIN, f0_max: float = DEFAULT_F0_MAX) -> AudioClip:
    """TD-PSOLA duration and pitch modification of one clip: analyse, then
    synthesise (see both)."""
    return synthesise(analyse(clip, f0_min, f0_max), duration_ratio, f0_ratio)
