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
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip, _check_ratio
from .errors import SpkraugError

F0_WINDOW_SECONDS = 0.025
F0_HOP_SECONDS = 0.010
UNVOICED_STEP_SECONDS = 0.010
VOICING_THRESHOLD = 0.5
F0_MIN = 60.0
F0_MAX = 400.0


def estimate_f0(clip: AudioClip) -> np.ndarray:
    """Autocorrelation pitch tracker: one F0 in Hz per 25 ms frame, every 10 ms.

    Each frame is mean-removed and its unbiased normalized autocorrelation
    searched over lags for [F0_MIN, F0_MAX]; the peak is refined by parabolic
    interpolation, and the frame is voiced when the peak is >= 0.5. An
    unvoiced frame holds 0 and a voiced one at least F0_MIN > 0, so f0 > 0 is
    the voicing. At every supported sample rate the lag range is non-empty.
    """
    sr = clip.sample_rate
    win = int(round(F0_WINDOW_SECONDS * sr))
    hop = int(round(F0_HOP_SECONDS * sr))
    x = clip.samples
    if len(x) < win:
        return np.zeros(0)
    frames = sliding_window_view(x, win)[::hop]
    frames = frames - frames.mean(axis=1, keepdims=True)

    # autocorrelation of every frame at once, lags 0..win-1
    nfft = 1 << int(np.ceil(np.log2(2 * win)))
    spectra = np.fft.rfft(frames, n=nfft, axis=1)
    acf = np.fft.irfft(spectra * np.conj(spectra), n=nfft, axis=1)[:, :win]
    acf /= (win - np.arange(win))[None, :]  # unbiased: no taper bias at the peak

    lag_min = max(2, int(np.ceil(sr / F0_MAX)))
    lag_max = min(win - 2, int(np.floor(sr / F0_MIN)))

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
    f0[rows] = np.clip(sr / (lag + delta), F0_MIN, F0_MAX)

    return f0


def _f0_at(f0: np.ndarray, pos: float, sr: int) -> float:
    """F0 of the frame whose centre is nearest sample position pos (clamped
    to the track; 0.0 for a track with no frames)."""
    if len(f0) == 0:
        return 0.0
    i = int(round((pos - round(F0_WINDOW_SECONDS * sr) / 2) / round(F0_HOP_SECONDS * sr)))
    return float(f0[min(max(i, 0), len(f0) - 1)])


def place_pitch_marks(clip: AudioClip, f0: np.ndarray) -> np.ndarray:
    """Walk the clip placing one mark per period, snapped to waveform maxima.

    Voiced spans advance by the local period and snap each mark to the
    highest sample within a quarter period either side; unvoiced spans fall
    back to a uniform 10 ms grid. Returns strictly increasing int64 sample
    indices.
    """
    n = len(clip)
    if n == 0:
        raise SpkraugError("cannot place pitch marks on an empty clip")
    x = clip.samples
    sr = clip.sample_rate
    step_unvoiced = int(round(UNVOICED_STEP_SECONDS * sr))

    marks = []
    f0_start = _f0_at(f0, 0, sr)
    if f0_start > 0:
        first_period = int(round(sr / f0_start))
        pos = int(np.argmax(x[:min(first_period, n)]))
    else:
        pos = 0
    marks.append(pos)

    while True:
        f0_here = _f0_at(f0, marks[-1], sr)
        if f0_here > 0:
            period = sr / f0_here
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

    return np.asarray(marks, dtype=np.int64)


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


def analyse(clip: AudioClip) -> PsolaAnalysis:
    """Track F0 and place pitch marks once; any number of synthesise calls
    can then reuse the result."""
    f0 = estimate_f0(clip)
    marks = place_pitch_marks(clip, f0)
    if len(marks) < 3:
        raise SpkraugError(
            f"found only {len(marks)} pitch marks; input is shorter than two periods"
        )
    gaps = np.diff(marks)
    # local analysis period per interior mark: mean of the two adjacent gaps
    periods = 0.5 * (gaps[:-1] + gaps[1:])
    # voicing of the frame nearest each interior mark, by _f0_at's rule (np.rint
    # rounds half to even, as round does)
    win, hop = (round(s * clip.sample_rate) for s in (F0_WINDOW_SECONDS, F0_HOP_SECONDS))
    nearest = np.clip(np.rint((marks[1:-1] - win / 2) / hop), 0, len(f0) - 1).astype(np.int64)
    voiced = f0[nearest] > 0 if len(f0) else np.zeros(len(nearest), dtype=bool)
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
    _check_ratio("duration_ratio", duration_ratio)
    _check_ratio("f0_ratio", f0_ratio)

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


def psola_modify(clip: AudioClip, duration_ratio: float, f0_ratio: float) -> AudioClip:
    """TD-PSOLA duration and pitch modification of one clip: analyse, then
    synthesise (see both)."""
    return synthesise(analyse(clip), duration_ratio, f0_ratio)
