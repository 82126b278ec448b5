"""Exact O(n^2) t-SNE for projecting speaker embeddings to 2-D.

Deliberately the quadratic variant: the corpora this toolkit handles put a
few hundred to a few thousand utterances on a plot, where tree-approximated
gradients buy nothing and cost determinism.
"""

from html import escape  # xml.sax.saxutils.escape would import urllib.request, ssl and socket

import numpy as np

from .audio_io import _write_lines
from .embedding import EmbeddingSet, _tsv_rows
from .errors import SpkraugError
from .rng import rng_for

# Optimizer constants: the standard defaults for the technique, not values
# taken from any evaluation protocol.
DEFAULT_PERPLEXITY = 30.0
DEFAULT_ITERATIONS = 1000
LEARNING_RATE = 200.0
MOMENTUM = 0.5
FINAL_MOMENTUM = 0.8
EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 100
MOMENTUM_SWITCH_ITER = 250
OUTPUT_DIM = 2
MAX_BISECTION_STEPS = 64
ENTROPY_TOLERANCE = 1e-5
INIT_SCALE = 1e-4

SVG_WIDTH = 640
SVG_HEIGHT = 480


def _validate_distances(distances_sq: np.ndarray) -> np.ndarray:
    d2 = np.asarray(distances_sq, dtype=np.float64)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise SpkraugError(f"distance matrix must be square, got {d2.shape}")
    if not np.allclose(d2, d2.T, atol=1e-12):
        raise SpkraugError("distance matrix must be symmetric")
    if np.any(d2 < 0) or np.any(np.diag(d2) != 0):
        raise SpkraugError("distances must be non-negative with a zero diagonal")
    return d2


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """-sum(p * log2(p)) of each row over its non-zero entries. A row with a
    zero is summed on its own, since dropping entries changes the pairwise
    summation's order."""
    positive = p > 0
    whole = positive.all(axis=1)
    entropy = np.empty(len(p))
    q = p[whole]
    entropy[whole] = -np.sum(q * np.log2(q), axis=1)
    for i in np.flatnonzero(~whole):
        q = p[i][positive[i]]
        entropy[i] = -np.sum(q * np.log2(q))
    return entropy


def conditional_rows(distances_sq: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic Gaussian affinities with per-row bandwidth search.

    Each row's precision beta_i is bisected (at most 64 steps) until the
    row entropy matches log2(perplexity) within 1e-5; degenerate rows where
    the entropy cannot move (e.g. all-equal distances) keep their uniform
    limit. Rows sum to exactly 1. All rows still searching take each step
    together; a row stops changing once it converges.
    """
    d2 = _validate_distances(distances_sq)
    n = d2.shape[0]
    if perplexity > n - 1:
        raise SpkraugError(
            f"perplexity {perplexity} impossible with {n} points (max {n - 1})"
        )
    target = np.log2(perplexity)

    # normalize scale before searching so uniformly scaled inputs produce
    # bitwise-identical rows (the bandwidth absorbs the constant)
    off = ~np.eye(n, dtype=bool)
    # average d2 / 2**e, e the exponent of its max, so the sum cannot overflow;
    # scaling by a power of two is exact, so the mean equals the plain one
    exponent = np.frexp(d2.max())[1]
    scaled = d2[off]
    mean_d2 = np.ldexp(np.ldexp(scaled, -exponent, out=scaled).mean(), exponent)
    if mean_d2 > 0:
        d2 = d2 / mean_d2

    rows = d2[off].reshape(n, n - 1)  # row i without its diagonal entry
    found = np.empty_like(rows)
    active = np.arange(n)
    beta, beta_lo, beta_hi = np.ones(n), np.zeros(n), np.full(n, np.inf)
    for _ in range(MAX_BISECTION_STEPS):
        logits = -beta[:, None] * rows[active]
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        found[active] = p
        diff = _row_entropies(p) - target
        searching = np.abs(diff) > ENTROPY_TOLERANCE
        if not searching.any():
            break
        active, diff = active[searching], diff[searching]
        beta, beta_lo, beta_hi = beta[searching], beta_lo[searching], beta_hi[searching]
        flat = diff > 0  # too flat: sharpen
        sharper = np.where(beta_hi == np.inf, beta * 2.0, 0.5 * (beta + beta_hi))
        beta, beta_lo, beta_hi = (np.where(flat, sharper, 0.5 * (beta + beta_lo)),
                                  np.where(flat, beta, beta_lo), np.where(flat, beta_hi, beta))
    P = np.zeros((n, n))
    P[off] = found.ravel()
    return P


def conditional_probabilities(distances_sq: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint affinities P = (P_cond + P_cond.T) / (2n).

    The matrix is symmetric, non-negative, and sums to 1 overall; this is
    the P consumed by kl_gradient.
    """
    cond = conditional_rows(distances_sq, perplexity)
    return (cond + cond.T) / (2.0 * cond.shape[0])


def _squared_distances(X: np.ndarray) -> np.ndarray:
    """Full (n, n) matrix of squared Euclidean distances between rows.

    Each entry adds its squared coordinate differences one column at a time,
    in column order, as pdist's "sqeuclidean" metric does: the two agree bit
    for bit (tests/test_tsne.py).
    """
    first, *rest = X.T
    D = np.subtract.outer(first, first)
    D *= D
    diff = np.empty_like(D)
    for column in rest:
        np.subtract.outer(column, column, out=diff)
        diff *= diff
        D += diff
    return D


def _student_t_weights(Y: np.ndarray) -> np.ndarray:
    W = _squared_distances(Y)
    W += 1.0
    np.reciprocal(W, out=W)
    np.fill_diagonal(W, 0.0)
    return W


def kl_gradient(P: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gradient of KL(P || Q) with Student-t low-dimensional affinities Q."""
    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n = Y.shape[0]
    if P.shape != (n, n) or Y.ndim != 2:
        raise SpkraugError(f"P {P.shape} does not match Y {Y.shape}")
    W = _student_t_weights(Y)
    M = np.divide(W, W.sum())  # Q, then M = (P - Q) * W in the same buffer
    np.subtract(P, M, out=M)
    M *= W
    # M @ Y in fixed 64-row blocks: OpenBLAS splits a larger product across
    # threads, and then its bytes depend on the thread count
    MY = np.concatenate([M[s:s + 64] @ Y for s in range(0, n, 64)])
    return 4.0 * (M.sum(axis=1)[:, None] * Y - MY)


def kl_divergence(P: np.ndarray, Y: np.ndarray) -> float:
    """KL(P || Q) evaluated at embedding Y; the optimization objective."""
    P = np.asarray(P, dtype=np.float64)
    W = _student_t_weights(np.asarray(Y, dtype=np.float64))
    Q = W / W.sum()
    mask = P > 0
    return float(np.sum(P[mask] * np.log(P[mask] / np.maximum(Q[mask], 1e-300))))


def run_tsne(embeddings: EmbeddingSet, perplexity: float = DEFAULT_PERPLEXITY,
             iterations: int = DEFAULT_ITERATIONS, seed: int = 0) -> np.ndarray:
    """Project an embedding set to 2-D coordinates.

    Gradient descent with momentum (0.5 until iteration 250, then 0.8, at
    learning rate 200) and early exaggeration x12 for the first 100 iterations,
    starting from a Gaussian initialization of scale 1e-4 drawn from `seed`.
    The output is recentered every step, and rows follow the input entry order.
    """
    if not perplexity > 1:
        raise SpkraugError(f"perplexity must exceed 1, got {perplexity}")
    if iterations < 1:
        raise SpkraugError(f"iterations must be positive, got {iterations}")
    n = len(embeddings)
    if n < 4:
        raise SpkraugError(f"need at least 4 points, got {n}")
    if not perplexity < (n - 1) / 3:
        raise SpkraugError(f"perplexity {perplexity} too large for {n} points "
                           f"(needs perplexity < {(n - 1) / 3:.2f})")
    P = conditional_probabilities(_squared_distances(embeddings.matrix), perplexity)

    Y = rng_for(seed, "tsne.init").normal(0.0, INIT_SCALE, size=(n, OUTPUT_DIM))
    Y -= Y.mean(axis=0)
    update = np.zeros_like(Y)

    P_exaggerated = P * EARLY_EXAGGERATION
    for it in range(iterations):
        grad = kl_gradient(P_exaggerated if it < EXAGGERATION_ITERS else P, Y)
        momentum = MOMENTUM if it < MOMENTUM_SWITCH_ITER else FINAL_MOMENTUM
        update = momentum * update - LEARNING_RATE * grad
        Y = Y + update
        Y = Y - Y.mean(axis=0)
    return Y


def save_coordinates(embeddings: EmbeddingSet, coords: np.ndarray, path) -> None:
    """TSV rows utterance_id, speaker_id, then one column per coordinate."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] != len(embeddings):
        raise SpkraugError(
            f"{coords.shape[0]} coordinate rows for {len(embeddings)} embeddings"
        )
    _write_lines(path, _tsv_rows(embeddings, coords))


_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def render_scatter_svg(embeddings: EmbeddingSet, coords: np.ndarray, path) -> None:
    """Speaker-colored scatter plot, written deterministically (no metadata)."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (len(embeddings), 2):
        raise SpkraugError(
            f"scatter needs n x 2 coordinates, got {coords.shape} for {len(embeddings)} points"
        )
    speakers = list(dict.fromkeys(embeddings.speaker_ids))  # first-seen order
    color = {s: _PALETTE[i % len(_PALETTE)] for i, s in enumerate(speakers)}

    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 40.0
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)

    def place(row):
        x = margin + (row[0] - lo[0]) / span[0] * (width - 2 * margin)
        y = height - margin - (row[1] - lo[1]) / span[1] * (height - 2 * margin)
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for uid, speaker, row in zip(embeddings.ids, embeddings.speaker_ids, coords):
        x, y = place(row)
        parts.append(
            f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3" fill="{color[speaker]}" '
            f'fill-opacity="0.8"><title>{escape(uid, quote=False)}</title></circle>'
        )
    for i, s in enumerate(speakers):
        ly = 16 + 16 * i
        parts.append(f'<circle cx="12" cy="{ly - 4}" r="4" fill="{color[s]}"/>')
        parts.append(f'<text x="22" y="{ly}" font-family="sans-serif" font-size="12">'
                     f'{escape(s, quote=False)}</text>')
    parts.append("</svg>")
    _write_lines(path, parts)
