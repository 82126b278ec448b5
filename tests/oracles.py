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


def load_embeddings_row_oracle(path):
    """The embedding TSV loader as one EmbeddingVector per line, checking
    each line in full before reading the next.

    The reference for `spkraug.embedding.load_embeddings`, which must return
    the same ids, speakers and matrix bytes, or raise the same exception
    type with the same message.
    """
    from pathlib import Path

    from spkraug.embedding import EmbeddingSet, EmbeddingVector
    from spkraug.errors import EmbeddingFileError

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#dim="):
        raise EmbeddingFileError(f"{path}: missing #dim= header")
    try:
        dim = int(lines[0][5:])
    except ValueError:
        raise EmbeddingFileError(f"{path}: unparseable header {lines[0]!r}") from None
    if dim < 1:
        raise EmbeddingFileError(f"{path}: dimension must be positive, got {dim}")
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 + dim:
            raise EmbeddingFileError(
                f"{path}:{lineno}: expected {2 + dim} fields, found {len(parts)}"
            )
        try:
            values = np.array([float(v) for v in parts[2:]])
        except ValueError:
            raise EmbeddingFileError(f"{path}:{lineno}: non-numeric value") from None
        vec = EmbeddingVector(parts[0], parts[1], values)
        if np.linalg.norm(vec.values) == 0.0:
            raise EmbeddingFileError(f"{path}:{lineno}: zero-norm embedding")
        entries.append(vec)
    return EmbeddingSet(dim, entries)


def wer_tuple_loop_oracle(reference, hypothesis):
    """Levenshtein WER as a cell-by-cell loop over (distance, subs, dels, ins)
    tuples, preferring substitution, then insertion, then deletion on ties.

    The reference for `spkraug.metrics.word_error_rate`, which must return
    the same tuple with the same types.
    """
    from spkraug.errors import EmptyReferenceError

    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise EmptyReferenceError("reference transcript has no tokens")

    # each cell carries (distance, subs, dels, ins)
    prev = [(j, 0, 0, j) for j in range(len(hyp) + 1)]
    for i in range(1, len(ref) + 1):
        cur = [(i, 0, i, 0)]
        for j in range(1, len(hyp) + 1):
            if ref[i - 1] == hyp[j - 1]:
                d, s, dl, ins = prev[j - 1]
                cur.append((d, s, dl, ins))
                continue
            d_sub, s_sub, dl_sub, in_sub = prev[j - 1]
            d_ins, s_ins, dl_ins, in_ins = cur[j - 1]
            d_del, s_del, dl_del, in_del = prev[j]
            best = (d_sub + 1, s_sub + 1, dl_sub, in_sub)
            if d_ins + 1 < best[0]:
                best = (d_ins + 1, s_ins, dl_ins, in_ins + 1)
            if d_del + 1 < best[0]:
                best = (d_del + 1, s_del, dl_del + 1, in_del)
            cur.append(best)
        prev = cur

    _, subs, dels, ins = prev[len(hyp)]
    return (subs + dels + ins) / len(ref), subs, dels, ins


def kl_gradient_oracle(P, Y):
    """t-SNE KL gradient with a fresh array for every intermediate: the
    reference `spkraug.tsne.kl_gradient` must equal bit for bit."""
    from scipy.spatial.distance import pdist, squareform

    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    d2 = squareform(pdist(Y, "sqeuclidean"))
    W = 1.0 / (1.0 + d2)
    np.fill_diagonal(W, 0.0)
    Q = W / W.sum()
    M = (P - Q) * W
    return 4.0 * (M.sum(axis=1)[:, None] * Y - M @ Y)


def griffin_lim_oracle(spec, iterations, seed=0):
    """Griffin-Lim that rebuilds the window, the overlap-add index and the
    window-square normaliser in every iteration. Returns (samples, errors);
    the reference `spkraug.spectral.griffin_lim` must equal bit for bit."""
    from spkraug.spectral import _frame_signal, _window

    fl, fs, fft = spec.frame_length, spec.frame_shift, spec.fft_size

    def stft(x):
        return np.fft.rfft(_frame_signal(x, fl, fs) * _window(fl), n=fft, axis=1)

    def istft(s):
        frames = np.fft.irfft(s, n=fft, axis=1)[:, :fl]
        win = _window(fl)
        frames = frames * win
        n_frames = frames.shape[0]
        out_len = fl + (n_frames - 1) * fs
        idx = _frame_signal(np.arange(out_len), fl, fs).ravel()
        num = np.bincount(idx, weights=frames.ravel(), minlength=out_len)
        den = np.bincount(idx, weights=np.tile(win * win, n_frames), minlength=out_len)
        nonzero = den > 1e-12
        num[nonzero] /= den[nonzero]
        num[~nonzero] = 0.0
        return num

    m = spec.magnitudes
    m_norm = float(np.linalg.norm(m))
    rng = np.random.default_rng(seed)
    phase = rng.uniform(-np.pi, np.pi, m.shape)
    phase[:, 0] = 0.0
    if fft % 2 == 0:
        phase[:, -1] = 0.0
    s = m * np.exp(1j * phase)
    errors = []
    x = None
    for _ in range(iterations):
        x = istft(s)
        analyzed = stft(x)
        errors.append(float(np.linalg.norm(m - np.abs(analyzed)) / m_norm))
        s = m * np.exp(1j * np.angle(analyzed))
    peak = np.abs(x).max()
    if peak > 0:
        x = x * (0.99 / peak)
    return x, errors


def f0_refinement_loop_oracle(clip, f0_min=60.0, f0_max=400.0):
    """The autocorrelation F0 tracker with its parabolic peak refinement run
    one voiced frame at a time. Returns (f0_values, voicing); the reference
    `spkraug.psola.estimate_f0` must equal bit for bit."""
    from numpy.lib.stride_tricks import sliding_window_view

    sr = clip.sample_rate
    win = int(round(0.025 * sr))
    hop = int(round(0.010 * sr))
    x = clip.samples
    if len(x) < win:
        return np.zeros(0), np.zeros(0, dtype=bool)
    frames = sliding_window_view(x, win)[::hop]
    frames = frames - frames.mean(axis=1, keepdims=True)
    nfft = 1 << int(np.ceil(np.log2(2 * win)))
    spectra = np.fft.rfft(frames, n=nfft, axis=1)
    acf = np.fft.irfft(spectra * np.conj(spectra), n=nfft, axis=1)[:, :win]
    acf /= (win - np.arange(win))[None, :]
    lag_min = max(2, int(np.ceil(sr / f0_max)))
    lag_max = min(win - 2, int(np.floor(sr / f0_min)))
    energy = acf[:, 0]
    searchable = energy > 1e-12
    norm = np.ones_like(acf)
    norm[searchable] = acf[searchable] / energy[searchable, None]
    region = norm[:, lag_min:lag_max + 1]
    best = region.max(axis=1)
    voiced = searchable & (best >= 0.5)
    is_local_max = (region >= norm[:, lag_min - 1:lag_max]) & \
                   (region >= norm[:, lag_min + 1:lag_max + 2])
    candidate = is_local_max & (region >= 0.9 * best[:, None])
    has_candidate = candidate.any(axis=1)
    peak_off = np.where(has_candidate, np.argmax(candidate, axis=1),
                        np.argmax(region, axis=1))
    peak_lag = peak_off + lag_min

    f0 = np.zeros(len(frames))
    rows = np.flatnonzero(voiced)
    for i in rows:
        lag = peak_lag[i]
        left, mid, right = norm[i, lag - 1], norm[i, lag], norm[i, lag + 1]
        denom = left - 2.0 * mid + right
        delta = 0.0 if denom >= -1e-15 else np.clip(0.5 * (left - right) / denom, -0.5, 0.5)
        f0[i] = np.clip(sr / (lag + delta), f0_min, f0_max)
    return f0, voiced
