import inspect
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from oracles import (
    conditional_rows_loop_oracle,
    finite_difference_gradient,
    kl_gradient_oracle,
    kl_objective_oracle,
)
from spkraug.embedding import EmbeddingSet
from spkraug.errors import SpkraugError
from spkraug.rng import rng_for
from spkraug.tsne import (
    EARLY_EXAGGERATION,
    EXAGGERATION_ITERS,
    FINAL_MOMENTUM,
    INIT_SCALE,
    LEARNING_RATE,
    MOMENTUM,
    MOMENTUM_SWITCH_ITER,
    _row_entropies,
    _squared_distances,
    conditional_probabilities,
    conditional_rows,
    kl_divergence,
    kl_gradient,
    render_scatter_svg,
    run_tsne,
    save_coordinates,
)


def _dist_sq(points):
    return squareform(pdist(np.asarray(points, dtype=float), "sqeuclidean"))


@pytest.mark.parametrize("dim", [1, 2, 64])
def test_squared_distances_equal_pdist_bitwise(dim):
    """300 rows at per-column scales from 1e-3 to 1e3; rows 3 and 7 repeat row 1."""
    rng = np.random.default_rng(dim)
    X = rng.standard_normal((300, dim)) * rng.uniform(1e-3, 1e3, size=dim)
    X[[3, 7]] = X[1]
    got = _squared_distances(X)
    assert got.tobytes() == _dist_sq(X).tobytes()
    assert got[1, 3] == got[3, 7] == got[7, 1] == 0.0


def _embedding_clusters(rng, n_clusters=2, per_cluster=10, dim=6, spread=0.05):
    ids, speakers, rows = [], [], []
    for c in range(n_clusters):
        center = 5.0 * rng.standard_normal(dim)
        for i in range(per_cluster):
            ids.append(f"c{c}_{i:02d}")
            speakers.append(f"spk{c}")
            rows.append(center + spread * rng.standard_normal(dim))
    return EmbeddingSet(ids, speakers, rows)


# -- config ------------------------------------------------------------------

def test_config_defaults():
    params = inspect.signature(run_tsne).parameters
    assert [(p, params[p].default) for p in ("perplexity", "iterations", "seed")] == [
        ("perplexity", 30.0), ("iterations", 1000), ("seed", 0)]


@pytest.mark.parametrize("kwargs", [
    {"perplexity": 1.0},
    {"perplexity": 0.0},
    {"iterations": 0},
])
def test_config_validation(kwargs):
    rng = np.random.default_rng(13)
    emb = EmbeddingSet([f"u{i}" for i in range(3)], ["s"] * 3, rng.standard_normal((3, 4)))
    with pytest.raises(SpkraugError,
                       match="^(perplexity must exceed 1|iterations must be positive), got "):
        run_tsne(emb, **kwargs)  # checked before the point count


# -- affinities --------------------------------------------------------------

def test_conditional_rows_equidistant_points_are_uniform():
    """Four mutually equidistant points: every neighbour is equally likely."""
    simplex = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    rows = conditional_rows(_dist_sq(simplex), 2.0)
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_allclose(rows[off], 1.0 / 3.0, atol=1e-12)
    assert np.all(np.diag(rows) == 0)


def test_conditional_rows_hit_target_entropy():
    rng = np.random.default_rng(0)
    d2 = _dist_sq(rng.standard_normal((12, 4)))
    perplexity = 5.0
    rows = conditional_rows(d2, perplexity)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    for i in range(12):
        p = rows[i][rows[i] > 0]
        entropy = -np.sum(p * np.log2(p))
        assert abs(entropy - np.log2(perplexity)) <= 1e-5


def test_conditional_rows_scale_invariant():
    rng = np.random.default_rng(1)
    d2 = _dist_sq(rng.standard_normal((9, 3)))
    a = conditional_rows(d2, 4.0)
    b = conditional_rows(1e6 * d2, 4.0)
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_conditional_probabilities_of_rows_near_1e153():
    """Rows the norm rule accepts whose squared distances sum past the largest
    float: the mean is taken at a power-of-two scale, so nothing warns and P
    is the P of the same rows divided by 2**510."""
    points = np.random.default_rng(5).uniform(-1e153, 1e153, size=(12, 4))
    d2 = _squared_distances(points)
    with np.errstate(over="ignore"):
        assert d2.sum() == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = conditional_probabilities(d2, 3.0)
    scaled = conditional_probabilities(_squared_distances(points / 2.0**510), 3.0)
    assert P.tobytes() == scaled.tobytes()  # the scaling is exact in binary floating point
    assert np.ptp(P[~np.eye(12, dtype=bool)]) > 0  # not the uniform rows of an infinite mean


def test_conditional_rows_nearer_point_gets_more_mass():
    points = np.array([[0.0], [1.0], [4.0], [9.0]])
    rows = conditional_rows(_dist_sq(points), 2.0)
    assert rows[0, 1] > rows[0, 2] > rows[0, 3]


@pytest.mark.parametrize("n,perplexity", [(3, 2.0), (5, 4.0), (17, 3.0), (60, 30.0),
                                          (130, 5.0), (300, 30.0)])
def test_conditional_rows_match_row_loop_oracle_bitwise(n, perplexity):
    """Outlying points push far neighbours' affinities to exactly 0, so rows
    with and without zeros both occur."""
    rng = np.random.default_rng(n)
    points = rng.standard_normal((n, 8))
    points[: n // 3] *= 40.0
    d2 = _dist_sq(points)
    assert conditional_rows(d2, perplexity).tobytes() == \
        conditional_rows_loop_oracle(d2, perplexity).tobytes()


@pytest.mark.parametrize("points", [
    np.eye(6),                                       # all distances equal
    np.zeros((4, 3)),                                # all distances zero
    np.repeat([[0.0, 0.0], [1.0, 2.0]], 4, axis=0),  # two groups of duplicates
])
def test_conditional_rows_degenerate_rows_match_oracle_bitwise(points):
    d2 = _dist_sq(points)
    assert conditional_rows(d2, 2.0).tobytes() == conditional_rows_loop_oracle(d2, 2.0).tobytes()


def test_row_entropies_sum_each_row_over_its_non_zero_entries():
    """Bitwise what -np.sum(q * np.log2(q)) gives on each row's non-zero
    entries alone, with zeros scattered through rows longer than NumPy's
    8-wide pairwise-sum blocks."""
    rng = np.random.default_rng(4)
    p = rng.random((50, 40))
    p[rng.random(p.shape) < 0.3] = 0.0
    p[0] = 1.0 / 40  # a row with no zero
    p /= p.sum(axis=1, keepdims=True)
    want = [-np.sum(q * np.log2(q)) for q in (row[row > 0] for row in p)]
    assert _row_entropies(p).tolist() == want


def test_conditional_rows_perplexity_cap():
    d2 = _dist_sq(np.random.default_rng(2).standard_normal((5, 2)))
    conditional_rows(d2, 4.0)  # n-1 exactly is allowed
    with pytest.raises(SpkraugError, match=r"perplexity 4.1 impossible with 5 points \(max 4\)"):
        conditional_rows(d2, 4.1)


@pytest.mark.parametrize("bad", [
    np.zeros((3, 4)),                      # not square
    np.array([[0.0, 1.0], [2.0, 0.0]]),    # asymmetric
    np.array([[0.0, -1.0], [-1.0, 0.0]]),  # negative distance
    np.array([[1.0, 1.0], [1.0, 0.0]]),    # nonzero diagonal
])
def test_distance_matrix_validation(bad):
    with pytest.raises(SpkraugError, match="^distance(s must be non-negative with a zero "
                                           "diagonal| matrix must be (square|symmetric))"):
        conditional_rows(bad, 1.5)


def test_joint_probabilities_properties():
    rng = np.random.default_rng(3)
    P = conditional_probabilities(_dist_sq(rng.standard_normal((10, 5))), 3.0)
    assert P.shape == (10, 10)
    np.testing.assert_allclose(P, P.T, atol=1e-15)
    assert np.all(P >= 0)
    assert np.all(np.diag(P) == 0)
    assert P.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_probabilities_degenerate_all_equal():
    """All-equal distances cannot reach an arbitrary entropy; the affinities
    settle on the uniform limit instead of failing."""
    d2 = np.ones((6, 6)) - np.eye(6)
    P = conditional_probabilities(d2, 2.0)
    np.testing.assert_allclose(P[~np.eye(6, dtype=bool)], 1.0 / 30.0, atol=1e-12)


# -- gradient ----------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(3):
        X = rng.standard_normal((6, 4))
        P = conditional_probabilities(_dist_sq(X), 1.5)
        Y = rng.standard_normal((6, 2))
        grad = kl_gradient(P, Y)
        fd = finite_difference_gradient(P, Y)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4


def test_gradient_rows_sum_to_zero():
    """The objective is translation invariant, so the gradient has no net drift."""
    rng = np.random.default_rng(5)
    P = conditional_probabilities(_dist_sq(rng.standard_normal((8, 3))), 2.0)
    grad = kl_gradient(P, rng.standard_normal((8, 2)))
    np.testing.assert_allclose(grad.sum(axis=0), 0.0, atol=1e-10)


def test_gradient_zero_for_two_points():
    # with two points Q is 1/2 everywhere off-diagonal no matter the layout
    P = np.array([[0.0, 0.5], [0.5, 0.0]])
    grad = kl_gradient(P, np.array([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


@pytest.mark.parametrize("n,dim,seed", [(2, 2, 0), (5, 1, 1), (12, 2, 2), (40, 3, 3)])
def test_gradient_matches_fresh_buffer_oracle_bitwise(n, dim, seed):
    rng = np.random.default_rng(seed)
    P = conditional_probabilities(_dist_sq(rng.standard_normal((n, 4))), min(1.5, n - 1.0)) \
        if n > 2 else np.array([[0.0, 0.5], [0.5, 0.0]])
    for scale in (1e-4, 1.0, 30.0):
        Y = scale * rng.standard_normal((n, dim))
        for P_eff in (P, 12.0 * P):
            assert kl_gradient(P_eff, Y).tobytes() == kl_gradient_oracle(P_eff, Y).tobytes()


def test_run_tsne_matches_the_oracle_descent_bitwise():
    """run_tsne's loop, spelled out with the oracle gradient and the
    exaggerated P rebuilt in every early iteration."""
    rng = np.random.default_rng(14)
    emb = _embedding_clusters(rng, per_cluster=6)
    P = conditional_probabilities(_dist_sq(emb.matrix), 3.0)
    Y = rng_for(0, "tsne.init").normal(0.0, INIT_SCALE, size=(len(emb), 2))
    Y -= Y.mean(axis=0)
    update = np.zeros_like(Y)
    for it in range(110):
        P_eff = P * EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else P
        momentum = MOMENTUM if it < MOMENTUM_SWITCH_ITER else FINAL_MOMENTUM
        update = momentum * update - LEARNING_RATE * kl_gradient_oracle(P_eff, Y)
        Y = Y + update
        Y = Y - Y.mean(axis=0)
    assert run_tsne(emb, perplexity=3.0, iterations=110).tobytes() == Y.tobytes()


def test_gradient_shape_mismatch():
    with pytest.raises(SpkraugError, match=r"P \(3, 3\) does not match Y \(4, 2\)"):
        kl_gradient(np.zeros((3, 3)), np.zeros((4, 2)))


def test_kl_divergence_matches_loop_oracle():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((7, 3))
    P = conditional_probabilities(_dist_sq(X), 1.8)
    Y = rng.standard_normal((7, 2))
    assert kl_divergence(P, Y) == pytest.approx(kl_objective_oracle(P, Y), abs=1e-10)


def test_manual_gradient_descent_decreases_kl():
    """Plain descent (no momentum, no exaggeration) must never increase KL
    at a sane step size."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 4))
    P = conditional_probabilities(_dist_sq(X), 2.5)
    Y = rng.standard_normal((10, 2))
    losses = [kl_divergence(P, Y)]
    for _ in range(400):
        Y = Y - 0.05 * kl_gradient(P, Y)
        losses.append(kl_divergence(P, Y))
    assert np.all(np.diff(losses) <= 1e-9)
    assert losses[-1] < losses[0]


# -- full runs ---------------------------------------------------------------

def test_run_tsne_deterministic():
    rng = np.random.default_rng(8)
    emb = _embedding_clusters(rng)
    a = run_tsne(emb, perplexity=4.0, iterations=50)
    b = run_tsne(emb, perplexity=4.0, iterations=50)
    assert np.array_equal(a, b)
    c = run_tsne(emb, perplexity=4.0, iterations=50, seed=9)
    assert not np.array_equal(a, c)


def test_run_tsne_output_shape_and_centering():
    rng = np.random.default_rng(9)
    emb = _embedding_clusters(rng)
    coords = run_tsne(emb, perplexity=4.0, iterations=30)
    assert coords.shape == (len(emb), 2)
    np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-6)


def test_run_tsne_reduces_kl():
    rng = np.random.default_rng(10)
    emb = _embedding_clusters(rng, spread=0.5)
    P = conditional_probabilities(_dist_sq(emb.matrix), 4.0)
    init = rng_for(0, "tsne.init").normal(0.0, 1e-4, size=(len(emb), 2))
    init -= init.mean(axis=0)
    final = run_tsne(emb, perplexity=4.0, iterations=300)
    assert kl_divergence(P, final) < kl_divergence(P, init)


def test_run_tsne_separates_two_clusters():
    rng = np.random.default_rng(11)
    emb = _embedding_clusters(rng, n_clusters=2, per_cluster=10, spread=0.05)
    coords = run_tsne(emb, perplexity=4.0)
    a = coords[:10]
    b = coords[10:]
    within = max(np.linalg.norm(a - a.mean(axis=0), axis=1).mean(),
                 np.linalg.norm(b - b.mean(axis=0), axis=1).mean())
    between = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
    assert between > 3.0 * within


def test_run_tsne_too_few_points():
    rng = np.random.default_rng(13)
    emb = EmbeddingSet([f"u{i}" for i in range(3)], ["s"] * 3, rng.standard_normal((3, 4)))
    with pytest.raises(SpkraugError, match="need at least 4 points, got 3"):
        run_tsne(emb, perplexity=2.0)


def test_run_tsne_perplexity_guard():
    rng = np.random.default_rng(14)
    emb = EmbeddingSet([f"u{i}" for i in range(10)], ["s"] * 10, rng.standard_normal((10, 4)))
    with pytest.raises(SpkraugError,
                       match=r"perplexity 3.0 too large for 10 points \(needs perplexity < 3.00\)"):
        run_tsne(emb, perplexity=3.0)  # needs < (10-1)/3
    run_tsne(emb, perplexity=2.9, iterations=2)


# -- outputs -----------------------------------------------------------------

def test_save_coordinates_format(tmp_path):
    rng = np.random.default_rng(15)
    emb = _embedding_clusters(rng, per_cluster=3)
    coords = rng.standard_normal((len(emb), 2))
    path = tmp_path / "coords.tsv"
    save_coordinates(emb, coords, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(emb)
    for want_uid, want_speaker, row, line in zip(emb.ids, emb.speaker_ids, coords, lines):
        uid, speaker, x, y = line.split("\t")
        assert uid == want_uid
        assert speaker == want_speaker
        assert float(x) == row[0]
        assert float(y) == row[1]


def test_save_coordinates_length_mismatch(tmp_path):
    rng = np.random.default_rng(16)
    emb = _embedding_clusters(rng, per_cluster=3)
    with pytest.raises(SpkraugError, match="2 coordinate rows for 6 embeddings"):
        save_coordinates(emb, np.zeros((2, 2)), tmp_path / "bad.tsv")


def test_render_svg_deterministic_with_point_per_utterance(tmp_path):
    rng = np.random.default_rng(17)
    emb = _embedding_clusters(rng, n_clusters=3, per_cluster=4)
    coords = rng.standard_normal((len(emb), 2))
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_scatter_svg(emb, coords, p1)
    render_scatter_svg(emb, coords, p2)
    svg = p1.read_text()
    assert p1.read_bytes() == p2.read_bytes()
    assert svg.startswith("<svg")
    # one dot per utterance plus one legend swatch per speaker
    assert svg.count("<circle") == len(emb) + 3
    for speaker in ("spk0", "spk1", "spk2"):
        assert speaker in svg
    for uid in emb.ids:
        assert f"<title>{uid}</title>" in svg


def test_render_svg_escapes_ids(tmp_path):
    """Ids may hold XML's special characters; the SVG still parses and gives
    them back as the points' titles and the legend's labels, one per speaker
    in first-seen order (here not the sorted order)."""
    ids = ["a&b", "c<d", "e>f"]
    emb = EmbeddingSet(ids, ["s<2", "s&1", "s<2"], np.eye(3))
    path = tmp_path / "ids.svg"
    render_scatter_svg(emb, np.arange(6.0).reshape(3, 2), path)
    root = ElementTree.parse(path).getroot()
    svg = "{http://www.w3.org/2000/svg}"
    assert [title.text for title in root.iter(f"{svg}title")] == ids
    assert [label.text for label in root.iter(f"{svg}text")] == ["s<2", "s&1"]


def test_render_svg_requires_2d(tmp_path):
    rng = np.random.default_rng(18)
    emb = _embedding_clusters(rng, per_cluster=3)
    with pytest.raises(SpkraugError,
                       match=r"scatter needs n x 2 coordinates, got \(6, 3\) for 6 points"):
        render_scatter_svg(emb, np.zeros((len(emb), 3)), tmp_path / "bad.svg")
