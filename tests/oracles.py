"""Independent reference implementations used only to check the package.

These deliberately share no code with spkraug: the EER oracle is a fully
vectorized sweep over a threshold grid, the WER oracle builds the complete
distance table and backtraces, and so on. Slow and obvious beats fast and
clever here.
"""

import math

import numpy as np


def eer_sweep_oracle(genuine, impostor):
    """Equal error rate via an exhaustive vectorized threshold sweep.

    Evaluates FRR/FAR at every distinct score plus one sentinel above the
    maximum, locates the first operating point where FAR <= FRR, and
    linearly interpolates against the previous point.
    """
    g = np.asarray(sorted(genuine), dtype=np.float64)
    i = np.asarray(sorted(impostor), dtype=np.float64)
    grid = np.unique(np.concatenate([g, i]))
    grid = np.concatenate([grid, [grid[-1] + 1.0]])

    # frr[t] = P(genuine < t), far[t] = P(impostor >= t), all at once
    frr = (g[None, :] < grid[:, None]).mean(axis=1)
    far = (i[None, :] >= grid[:, None]).mean(axis=1)
    diff = far - frr

    idx = int(np.argmax(diff <= 0.0))  # first non-positive difference
    if diff[idx] == 0.0:
        return float(frr[idx]), float(grid[idx])
    lam = diff[idx - 1] / (diff[idx - 1] - diff[idx])
    eer = frr[idx - 1] + lam * (frr[idx] - frr[idx - 1])
    threshold = grid[idx - 1] + lam * (grid[idx] - grid[idx - 1])
    return float(eer), float(threshold)


def wer_table_oracle(reference, hypothesis):
    """WER with counts from a full distance table plus backtrace.

    Backtrace steps prefer diagonal (match/substitution) over insertion over
    deletion, matching the documented tie rule.
    """
    ref, hyp = list(reference), list(hypothesis)
    rows, cols = len(ref) + 1, len(hyp) + 1
    dist = np.zeros((rows, cols), dtype=np.int64)
    dist[:, 0] = np.arange(rows)
    dist[0, :] = np.arange(cols)
    for a in range(1, rows):
        for b in range(1, cols):
            if ref[a - 1] == hyp[b - 1]:
                dist[a, b] = dist[a - 1, b - 1]
            else:
                dist[a, b] = 1 + min(dist[a - 1, b - 1], dist[a, b - 1], dist[a - 1, b])

    subs = dels = ins = 0
    a, b = len(ref), len(hyp)
    while a > 0 or b > 0:
        if a > 0 and b > 0 and ref[a - 1] == hyp[b - 1] and dist[a, b] == dist[a - 1, b - 1]:
            a, b = a - 1, b - 1
        elif a > 0 and b > 0 and dist[a, b] == dist[a - 1, b - 1] + 1:
            subs += 1
            a, b = a - 1, b - 1
        elif b > 0 and dist[a, b] == dist[a, b - 1] + 1:
            ins += 1
            b -= 1
        else:
            dels += 1
            a -= 1
    return (subs + dels + ins) / len(ref), subs, dels, ins


def knn_oracle(query, candidates, k):
    """k nearest (id, vector) pairs by full sort on (distance, id)."""
    ranked = sorted(candidates, key=lambda c: (math.dist(query, c[1]), c[0]))
    return [uid for uid, _ in ranked[:k]]


def centroid_oracle(vectors):
    """Mean by explicit accumulate-then-divide, one component at a time."""
    total = [0.0] * len(vectors[0])
    for v in vectors:
        for d, value in enumerate(v):
            total[d] += float(value)
    return [value / len(vectors) for value in total]


def fft_peak_hz(samples, sample_rate, n_fft=4096):
    """Frequency of the strongest spectral bin (Hann window, no refinement)."""
    x = np.asarray(samples, dtype=np.float64)[:n_fft]
    windowed = x * np.hanning(len(x))
    spectrum = np.abs(np.fft.rfft(windowed, n=n_fft))
    return float(np.argmax(spectrum) * sample_rate / n_fft)


def fft_bin_width(sample_rate, n_fft=4096):
    return sample_rate / n_fft


def kl_objective_oracle(P, Y):
    """KL(P || Q) computed with explicit loops and plain math.log."""
    Y = np.asarray(Y, dtype=np.float64)
    n = Y.shape[0]
    weights = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b:
                weights[a, b] = 1.0 / (1.0 + float(np.sum((Y[a] - Y[b]) ** 2)))
    Q = weights / weights.sum()
    total = 0.0
    for a in range(n):
        for b in range(n):
            if a != b and P[a, b] > 0:
                total += P[a, b] * math.log(P[a, b] / Q[a, b])
    return total


def finite_difference_gradient(P, Y, h=1e-5):
    """Central differences of the KL objective, point by point."""
    Y = np.asarray(Y, dtype=np.float64)
    grad = np.zeros_like(Y)
    for a in range(Y.shape[0]):
        for d in range(Y.shape[1]):
            plus, minus = Y.copy(), Y.copy()
            plus[a, d] += h
            minus[a, d] -= h
            grad[a, d] = (kl_objective_oracle(P, plus) - kl_objective_oracle(P, minus)) / (2 * h)
    return grad


def median_voiced_f0(clip, f0_min=60.0, f0_max=400.0):
    """Median F0 of the voiced frames, via the package's own tracker.

    Used to compare an output against its input under a known ratio, so the
    tracker's bias cancels.
    """
    from spkraug.psola import estimate_f0

    track = estimate_f0(clip, f0_min, f0_max)
    voiced = track.f0_values[track.voicing]
    if len(voiced) == 0:
        raise AssertionError("no voiced frames found")
    return float(np.median(voiced))


def psola_grain_loop_oracle(analysis, duration_ratio, f0_ratio):
    """TD-PSOLA synthesis as one grain at a time: schedule a grain, window
    it, add it into the numerator and its window into the denominator, step.

    The reference for `spkraug.psola.synthesise`, which must match it byte
    for byte. Returns the output samples.
    """
    from spkraug.psola import _grain_window

    clip, marks, periods, voiced_mark = analysis
    x = clip.samples
    n = len(x)
    interior = marks[1:-1]

    out_len = int(round(n * duration_ratio))
    margin = int(np.diff(marks).max()) + 1
    num = np.zeros(out_len + 2 * margin)
    den = np.zeros(out_len + 2 * margin)

    s = float(interior[0]) * duration_ratio
    while s < out_len:
        u = s / duration_ratio
        k = int(np.searchsorted(interior, u))
        if k == 0:
            j = 0
        elif k >= len(interior):
            j = len(interior) - 1
        else:
            # ties go to the earlier mark
            j = k - 1 if u - interior[k - 1] <= interior[k] - u else k
        center = marks[j + 1]
        left = center - marks[j]
        right = marks[j + 2] - center
        window = _grain_window(left, right)
        grain = x[marks[j]:marks[j + 2]] * window

        start = int(round(s)) - left + margin
        num[start:start + left + right] += grain
        den[start:start + left + right] += window

        hop_out = periods[j] / f0_ratio if voiced_mark[j] else periods[j]
        s += max(hop_out, 1.0)

    out = num[margin:margin + out_len]
    weight = den[margin:margin + out_len]
    return out / np.maximum(weight, 0.25)
