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


def median_voiced_f0(clip):
    """Median F0 of the voiced frames, via the package's own tracker.

    Used to compare an output against its input under a known ratio, so the
    tracker's bias cancels.
    """
    from spkraug.psola import estimate_f0

    f0 = estimate_f0(clip)
    voiced = f0[f0 > 0]
    if len(voiced) == 0:
        raise AssertionError("no voiced frames found")
    return float(np.median(voiced))


def grain_window_oracle(left, right):
    """One TD-PSOLA grain window: sin^2 over the `left` samples before the
    mark, cos^2 over the `right` samples from it."""
    return np.concatenate([np.sin(0.5 * np.pi * (np.arange(left) / left)) ** 2,
                           np.cos(0.5 * np.pi * (np.arange(right) / right)) ** 2])


def psola_grain_loop_oracle(analysis, duration_ratio, f0_ratio):
    """TD-PSOLA synthesis as one grain at a time: schedule a grain, window
    it, add it into the numerator and its window into the denominator, step.

    The reference for `spkraug.psola.synthesise`, which must match it byte
    for byte. Returns the output samples. The grain windows are built here
    by grain_window_oracle, not taken from the analysis.
    """
    clip, marks, periods, voiced_mark, _ = analysis  # builds its own windows
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
        window = grain_window_oracle(left, right)
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
    """The embedding TSV loader as one (id, speaker, values) row per line, checking
    each line in full before reading the next.

    The reference for `spkraug.embedding.load_embeddings`, which must return
    the same ids, speakers and matrix bytes, or raise the same exception
    type with the same message. A row is refused when four times its squared
    norm overflows, so every squared distance between two rows is finite, and
    when its squared norm is subnormal. A repeated utterance_id is reported
    at its second line once every line has passed.
    """
    from pathlib import Path

    from spkraug.audio_io import _check_id
    from spkraug.embedding import EmbeddingSet
    from spkraug.errors import SpkraugError

    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#dim="):
        raise SpkraugError(f"{path}: missing #dim= header")
    try:
        dim = int(lines[0][5:])
    except ValueError:
        raise SpkraugError(f"{path}: unparseable header {lines[0]!r}") from None
    top = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
    if not 1 <= dim <= top:
        raise SpkraugError(f"{path}: dimension must be in [1, {top}], got {dim}")
    rows = []
    seen = set()
    repeat = None  # (line, id) of the first utterance_id seen before
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 + dim:
            raise SpkraugError(
                f"{path}:{lineno}: expected {2 + dim} fields, found {len(parts)}"
            )
        try:
            _check_id("utterance_id", parts[0])
            _check_id("speaker_id", parts[1])
        except SpkraugError as exc:
            raise SpkraugError(f"{path}:{lineno}: {exc}") from None
        try:
            values = np.array([float(v) for v in parts[2:]])
        except ValueError:
            raise SpkraugError(f"{path}:{lineno}: non-numeric value") from None
        if not np.all(np.isfinite(values)):
            raise SpkraugError(f"{path}:{lineno}: embedding has non-finite values")
        with np.errstate(over="ignore"):
            square = np.dot(values, values)
            if square == 0.0:
                raise SpkraugError(f"{path}:{lineno}: zero-norm embedding")
            if square < 2.2250738585072014e-308:  # the smallest normal double
                raise SpkraugError(f"{path}:{lineno}: embedding norm too small")
            if not np.isfinite(4.0 * square):
                raise SpkraugError(f"{path}:{lineno}: embedding norm too large")
        if repeat is None and parts[0] in seen:
            repeat = lineno, parts[0]
        seen.add(parts[0])
        rows.append((parts[0], parts[1], values))
    if repeat is not None:
        raise SpkraugError(f"{path}:{repeat[0]}: duplicate utterance_id {repeat[1]!r}")
    return EmbeddingSet([r[0] for r in rows], [r[1] for r in rows],
                        np.array([r[2] for r in rows]).reshape(len(rows), dim))


def wer_tuple_loop_oracle(reference, hypothesis):
    """Levenshtein WER as a cell-by-cell loop over (distance, subs, dels, ins)
    tuples, preferring substitution, then insertion, then deletion on ties.

    The reference for `spkraug.metrics.word_error_rate`, which must return
    the same tuple with the same types.
    """
    from spkraug.errors import SpkraugError

    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise SpkraugError("reference transcript has no tokens")

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


def _periodic_hann(frame_length):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_length) / frame_length)


def _tail_reflect_frames(x, frame_length, frame_shift):
    """The frames an STFT takes: as many as reach the last sample, the tail
    reflect-padded (edge-padded for a one-sample signal), one row each."""
    n_frames = 1 + max(0, math.ceil((len(x) - frame_length) / frame_shift))
    pad = frame_length + (n_frames - 1) * frame_shift - len(x)
    if pad > 0:
        x = np.pad(x, (0, pad), mode="reflect" if len(x) > 1 else "edge")
    return np.array([x[j * frame_shift:j * frame_shift + frame_length]
                     for j in range(n_frames)])


def istft_frame_loop_oracle(spec, frame_length, frame_shift, fft_size):
    """The least-squares inverse STFT one frame at a time: each windowed frame
    is added into the numerator at j * shift and its squared window into the
    denominator; the quotient is taken where the denominator exceeds 1e-12
    and is 0 elsewhere. `spkraug.spectral.istft` must equal it bit for bit."""
    win = _periodic_hann(frame_length)
    frames = np.fft.irfft(spec, n=fft_size, axis=1)[:, :frame_length] * win
    out_len = frame_length + (len(frames) - 1) * frame_shift
    num, den = np.zeros(out_len), np.zeros(out_len)
    for j, frame in enumerate(frames):
        num[j * frame_shift:j * frame_shift + frame_length] += frame
        den[j * frame_shift:j * frame_shift + frame_length] += win * win
    out = np.zeros(out_len)
    usable = den > 1e-12
    out[usable] = num[usable] / den[usable]
    return out


def griffin_lim_oracle(spec, iterations, seed=0):
    """Classic Griffin-Lim, phase step M * exp(i * angle(Z)) and BLAS norms,
    rebuilding the window, the overlap-add index and the window-square
    normaliser in every iteration. Returns (samples, errors);
    `spkraug.spectral.griffin_lim` must agree within the unit-phase
    projection's stated tolerance."""
    fl, fs, fft = spec.frame_length, spec.frame_shift, spec.fft_size

    def stft(x):
        return np.fft.rfft(_tail_reflect_frames(x, fl, fs) * _periodic_hann(fl), n=fft, axis=1)

    def istft(s):
        frames = np.fft.irfft(s, n=fft, axis=1)[:, :fl]
        win = _periodic_hann(fl)
        frames = frames * win
        n_frames = frames.shape[0]
        out_len = fl + (n_frames - 1) * fs
        idx = (np.arange(n_frames)[:, None] * fs + np.arange(fl)).ravel()
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


def griffin_lim_unit_phase_oracle(spec, iterations, seed=0):
    """Griffin-Lim with the unit-phase projection Z * (M / |Z|) (M where
    |Z| = 0) and pairwise sum-of-squares norms, rebuilding the window, the
    overlap-add index and the window-square normaliser in every iteration.
    Returns (samples, errors); `spkraug.spectral.griffin_lim` must equal bit
    for bit."""
    fl, fs, fft = spec.frame_length, spec.frame_shift, spec.fft_size

    def stft(x):
        return np.fft.rfft(_tail_reflect_frames(x, fl, fs) * _periodic_hann(fl), n=fft, axis=1)

    def istft(s):
        frames = np.fft.irfft(s, n=fft, axis=1)[:, :fl]
        win = _periodic_hann(fl)
        frames = frames * win
        n_frames = frames.shape[0]
        out_len = fl + (n_frames - 1) * fs
        idx = (np.arange(n_frames)[:, None] * fs + np.arange(fl)).ravel()
        num = np.bincount(idx, weights=frames.ravel(), minlength=out_len)
        den = np.bincount(idx, weights=np.tile(win * win, n_frames), minlength=out_len)
        nonzero = den > 1e-12
        num[nonzero] /= den[nonzero]
        num[~nonzero] = 0.0
        return num

    m = spec.magnitudes
    m_norm = math.sqrt(float(np.sum(m ** 2)))
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
        a = np.abs(analyzed)
        errors.append(math.sqrt(float(np.sum((m - a) ** 2))) / m_norm)
        zero = a == 0
        s = np.where(zero, m, analyzed * (m / np.where(zero, 1.0, a)))
    peak = np.abs(x).max()
    if peak > 0:
        x = x * (0.99 / peak)
    return x, errors


def f0_refinement_loop_oracle(clip, f0_min=60.0, f0_max=400.0):
    """The autocorrelation F0 tracker with its parabolic peak refinement run
    one voiced frame at a time. Returns (f0_values, voicing); the F0 array of
    `spkraug.psola.estimate_f0` must equal f0_values bit for bit, and its
    f0 > 0 must equal voicing."""
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


def mel_filterbank_oracle(n_bands, fft_size, sample_rate):
    """Triangular mel filters (Davis & Mermelstein), n_bands x (fft_size//2 + 1),
    spanning 0..Nyquist on the HTK mel scale, built one band at a time."""
    top_mel = 2595.0 * np.log10(1.0 + np.float64(sample_rate / 2.0) / 700.0)
    edges_hz = 700.0 * (10.0 ** (np.linspace(0.0, top_mel, n_bands + 2) / 2595.0) - 1.0)
    bin_hz = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    fb = np.zeros((n_bands, len(bin_hz)))
    for b in range(n_bands):
        lo, center, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        fb[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


# the stand-in embedding's FFT size: the smallest power of two that holds its
# 800-sample frame
STANDIN_FFT_SIZE = 1024


def dense_mel_energies_oracle(clip, fft_size=STANDIN_FFT_SIZE):
    """Mel band energies of the clip, divided by its peak and then by its
    RMS, as one dense product `magnitude_spectrogram(...).magnitudes ** 2 @
    fb.T` (frames x 80), the form the stand-in embedding used before its
    fixed-order projection."""
    from spkraug.audio_io import AudioClip
    from spkraug.spectral import magnitude_spectrogram

    x = clip.samples
    peak = np.max(np.abs(x))
    if peak > 0:
        x = x / peak
        x = x / np.sqrt(np.mean(x * x))
    spec = magnitude_spectrogram(AudioClip(x, clip.sample_rate), fft_size=fft_size)
    return spec.magnitudes ** 2 @ mel_filterbank_oracle(80, fft_size, clip.sample_rate).T


def standin_embedding_oracle(clip, fft_size=STANDIN_FFT_SIZE):
    """The stand-in embedding computed from dense_mel_energies_oracle: log
    energies, each frame's mean over the bands subtracted, then each band's
    mean and std over time, L2-normalised."""
    logs = np.log(dense_mel_energies_oracle(clip, fft_size) + 1e-10)
    logs = logs - logs.mean(axis=1, keepdims=True)
    feats = np.concatenate([logs.mean(axis=0), logs.std(axis=0)])
    return feats / np.linalg.norm(feats)


def conditional_rows_loop_oracle(distances_sq, perplexity):
    """The t-SNE bandwidth search one row at a time: up to 64 bisection
    steps on beta until the row entropy is within 1e-5 of log2(perplexity).
    `spkraug.tsne.conditional_rows` must equal it bit for bit. Expects a
    valid distance matrix and perplexity."""
    d2 = np.asarray(distances_sq, dtype=np.float64)
    n = d2.shape[0]
    target = np.log2(perplexity)
    off = ~np.eye(n, dtype=bool)
    mean_d2 = d2[off].mean()
    if mean_d2 > 0:
        d2 = d2 / mean_d2

    P = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
        p = None
        for _ in range(64):
            logits = -beta * row
            logits -= logits.max()
            p = np.exp(logits)
            p /= p.sum()
            nonzero = p > 0
            entropy = -np.sum(p[nonzero] * np.log2(p[nonzero]))
            diff = entropy - target
            if abs(diff) <= 1e-5:
                break
            if diff > 0:  # too flat: sharpen
                beta_lo = beta
                beta = beta * 2.0 if beta_hi == np.inf else 0.5 * (beta + beta_hi)
            else:
                beta_hi = beta
                beta = 0.5 * (beta + beta_lo)
        P[i, np.arange(n) != i] = p
    return P


def upfirdn_resample_oracle(x, up, down, out_len):
    """The polyphase resampler as SciPy's upfirdn computes it, with the
    package's own filter taps and lead/skip alignment.
    `spkraug.audio_io._polyphase_resample` must agree within 1e-12 per
    sample: its phases sum in another order."""
    from scipy.signal import upfirdn

    from spkraug.audio_io import _design_lowpass

    if out_len <= 0:
        return np.zeros(0, dtype=np.float64)
    if up == down:  # then out_len == len(x)
        return x[:out_len].copy()
    taps, center = _design_lowpass(up, down)
    lead = (-center) % down  # shift so the filter delay lands on the output grid
    taps = np.concatenate([np.zeros(lead), taps])
    skip = (center + lead) // down
    need = out_len + skip
    produced = ((len(x) - 1) * up + len(taps) - 1) // down + 1 if len(x) else 0
    if produced < need:
        pad = math.ceil((need * down - (max(len(x), 1) - 1) * up - len(taps)) / up) + 1
        x = np.pad(x, (0, max(pad, 0)))
    y = upfirdn(taps, x, up=up, down=down)
    return y[skip:skip + out_len]
