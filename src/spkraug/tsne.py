"""Exact O(n^2) t-SNE for projecting speaker embeddings to 2-D.

Deliberately the quadratic variant: the corpora this toolkit handles put a
few hundred to a few thousand utterances on a plot, where tree-approximated
gradients buy nothing and cost determinism.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .embedding import EmbeddingSet
from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    PerplexityTooLargeError,
    TooFewPointsError,
)
from .rng import rng_for

EXAGGERATION_ITERS = 100
MOMENTUM_SWITCH_ITER = 250
MAX_BISECTION_STEPS = 64
ENTROPY_TOLERANCE = 1e-5
INIT_SCALE = 1e-4


@dataclass(frozen=True)
class TsneConfig:
    """Optimizer settings; none of these come from any evaluation protocol,
    they are the standard defaults for the technique."""

    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    momentum: float = 0.5
    final_momentum: float = 0.8
    early_exaggeration: float = 12.0
    seed: int = 0
    output_dim: int = 2

    def __post_init__(self):
        if not self.perplexity > 1:
            raise InvalidParamsError(f"perplexity must exceed 1, got {self.perplexity}")
        if self.iterations < 1 or self.output_dim < 1:
            raise InvalidParamsError("iterations and output_dim must be positive")
        if not self.learning_rate > 0:
            raise InvalidParamsError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("momentum", "final_momentum"):
            m = getattr(self, name)
            if not (0.0 <= m < 1.0):
                raise InvalidParamsError(f"{name} must lie in [0, 1), got {m}")
        if not self.early_exaggeration >= 1.0:
            raise InvalidParamsError(
                f"early_exaggeration must be >= 1, got {self.early_exaggeration}"
            )


def _validate_distances(distances_sq: np.ndarray) -> np.ndarray:
    d2 = np.asarray(distances_sq, dtype=np.float64)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise InvalidParamsError(f"distance matrix must be square, got {d2.shape}")
    if not np.allclose(d2, d2.T, atol=1e-12):
        raise InvalidParamsError("distance matrix must be symmetric")
    if np.any(d2 < 0) or np.any(np.diag(d2) != 0):
        raise InvalidParamsError("distances must be non-negative with a zero diagonal")
    return d2


def conditional_rows(distances_sq: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic Gaussian affinities with per-row bandwidth search.

    Each row's precision beta_i is bisected (at most 64 steps) until the
    row entropy matches log2(perplexity) within 1e-5; degenerate rows where
    the entropy cannot move (e.g. all-equal distances) keep their uniform
    limit. Rows sum to exactly 1.
    """
    d2 = _validate_distances(distances_sq)
    n = d2.shape[0]
    if perplexity > n - 1:
        raise PerplexityTooLargeError(
            f"perplexity {perplexity} impossible with {n} points (max {n - 1})"
        )
    target = np.log2(perplexity)

    # normalize scale before searching so uniformly scaled inputs produce
    # bitwise-identical rows (the bandwidth absorbs the constant)
    off = ~np.eye(n, dtype=bool)
    mean_d2 = d2[off].mean()
    if mean_d2 > 0:
        d2 = d2 / mean_d2

    P = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
        p = None
        for _ in range(MAX_BISECTION_STEPS):
            logits = -beta * row
            logits -= logits.max()
            p = np.exp(logits)
            p /= p.sum()
            nonzero = p > 0
            entropy = -np.sum(p[nonzero] * np.log2(p[nonzero]))
            diff = entropy - target
            if abs(diff) <= ENTROPY_TOLERANCE:
                break
            if diff > 0:  # too flat: sharpen
                beta_lo = beta
                beta = beta * 2.0 if beta_hi == np.inf else 0.5 * (beta + beta_hi)
            else:
                beta_hi = beta
                beta = 0.5 * (beta + beta_lo)
        P[i, np.arange(n) != i] = p
    return P


def conditional_probabilities(distances_sq: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint affinities P = (P_cond + P_cond.T) / (2n).

    The matrix is symmetric, non-negative, and sums to 1 overall; this is
    the P consumed by kl_gradient.
    """
    cond = conditional_rows(distances_sq, perplexity)
    return (cond + cond.T) / (2.0 * cond.shape[0])


def _student_t_weights(Y: np.ndarray) -> np.ndarray:
    W = squareform(pdist(Y, "sqeuclidean"))
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
        raise DimensionMismatchError(f"P {P.shape} does not match Y {Y.shape}")
    W = _student_t_weights(Y)
    M = np.divide(W, W.sum())  # Q, then M = (P - Q) * W in the same buffer
    np.subtract(P, M, out=M)
    M *= W
    return 4.0 * (M.sum(axis=1)[:, None] * Y - M @ Y)


def kl_divergence(P: np.ndarray, Y: np.ndarray) -> float:
    """KL(P || Q) evaluated at embedding Y; the optimization objective."""
    P = np.asarray(P, dtype=np.float64)
    W = _student_t_weights(np.asarray(Y, dtype=np.float64))
    Q = W / W.sum()
    mask = P > 0
    return float(np.sum(P[mask] * np.log(P[mask] / np.maximum(Q[mask], 1e-300))))


def run_tsne(embeddings: EmbeddingSet, config: TsneConfig = TsneConfig(),
             callback=None) -> np.ndarray:
    """Project an embedding set to config.output_dim coordinates.

    Gradient descent with momentum (0.5 until iteration 250, then
    final_momentum) and early exaggeration for the first 100 iterations,
    starting from a seeded Gaussian initialization of scale 1e-4. The output
    is recentered every step, and rows follow the input entry order.

    callback, when given, is invoked as callback(iteration, coords_copy)
    after every update.
    """
    n = len(embeddings)
    if n < 4:
        raise TooFewPointsError(f"need at least 4 points, got {n}")
    if not config.perplexity < (n - 1) / 3:
        raise PerplexityTooLargeError(
            f"perplexity {config.perplexity} too large for {n} points "
            f"(needs perplexity < {(n - 1) / 3:.2f})"
        )
    d2 = squareform(pdist(embeddings.matrix, "sqeuclidean"))
    P = conditional_probabilities(d2, config.perplexity)

    rng = rng_for(config.seed, "tsne.init")
    Y = rng.normal(0.0, INIT_SCALE, size=(n, config.output_dim))
    Y -= Y.mean(axis=0)
    update = np.zeros_like(Y)

    P_exaggerated = P * config.early_exaggeration
    for it in range(config.iterations):
        grad = kl_gradient(P_exaggerated if it < EXAGGERATION_ITERS else P, Y)
        momentum = config.momentum if it < MOMENTUM_SWITCH_ITER else config.final_momentum
        update = momentum * update - config.learning_rate * grad
        Y = Y + update
        Y = Y - Y.mean(axis=0)
        if callback is not None:
            callback(it, Y.copy())
    return Y


def save_coordinates(embeddings: EmbeddingSet, coords: np.ndarray, path) -> None:
    """TSV rows utterance_id, speaker_id, then one column per coordinate."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] != len(embeddings):
        raise DimensionMismatchError(
            f"{coords.shape[0]} coordinate rows for {len(embeddings)} embeddings"
        )
    lines = []
    for uid, speaker, row in zip(embeddings.ids, embeddings.speaker_ids, coords.tolist()):
        vals = "\t".join(map(repr, row))
        lines.append(f"{uid}\t{speaker}\t{vals}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def render_scatter_svg(embeddings: EmbeddingSet, coords: np.ndarray, path,
                       width: int = 640, height: int = 480) -> None:
    """Speaker-colored scatter plot, written deterministically (no metadata)."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (len(embeddings), 2):
        raise DimensionMismatchError(
            f"scatter needs n x 2 coordinates, got {coords.shape} for {len(embeddings)} points"
        )
    speakers = embeddings.speakers()
    color = {s: _PALETTE[i % len(_PALETTE)] for i, s in enumerate(speakers)}

    margin = 40.0
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
            f'fill-opacity="0.8"><title>{uid}</title></circle>'
        )
    for i, s in enumerate(speakers):
        ly = 16 + 16 * i
        parts.append(f'<circle cx="12" cy="{ly - 4}" r="4" fill="{color[s]}"/>')
        parts.append(f'<text x="22" y="{ly}" font-family="sans-serif" font-size="12">{s}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
