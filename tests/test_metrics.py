import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eer_sweep_oracle, wer_table_oracle, wer_tuple_loop_oracle
from spkraug.dataset import Manifest, UtteranceRecord, generate_eer_pairs
from spkraug.embedding import EmbeddingSet, cosine_similarity
from spkraug.errors import SpkraugError
from spkraug.metrics import (
    DEFAULT_LOSS_WEIGHTS,
    ScoredPair,
    batch_cs_loss,
    combined_loss,
    eer_loss,
    equal_error_rate,
    load_pairs,
    save_pairs,
    score_pairs,
    tokenize_transcript,
    word_error_rate,
)


def _set(*rows):
    """A set from (utterance_id, speaker_id, values) rows."""
    return EmbeddingSet([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])


def _pairs(genuine, impostor):
    out = [ScoredPair(f"g{i}", f"g{i}b", True, s) for i, s in enumerate(genuine)]
    out += [ScoredPair(f"i{i}", f"i{i}b", False, s) for i, s in enumerate(impostor)]
    return out


# -- combined loss -----------------------------------------------------------

def test_combined_loss_example():
    value = combined_loss(2.0, 3.0, 4.0, 1.0, 1.0, 0.1)
    assert value == pytest.approx(2.0 + 3.0 + 0.4)


def test_combined_loss_defaults():
    params = inspect.signature(combined_loss).parameters
    assert tuple(params[w].default for w in ("alpha", "beta", "gamma")) == DEFAULT_LOSS_WEIGHTS
    assert combined_loss(1.0, 1.0, 1.0) == pytest.approx(2.1)


def test_combined_loss_is_linear_in_each_weight():
    terms = (0.5, 1.5, 2.5)
    base = combined_loss(*terms, 1.0, 1.0, 1.0)
    bumped = combined_loss(*terms, 2.0, 1.0, 1.0)
    assert bumped - base == pytest.approx(0.5)


def test_loss_terms_validation():
    with pytest.raises(SpkraugError, match=r"loss terms must be finite, got \(nan, 0.0, 0.0\)"):
        combined_loss(float("nan"), 0.0, 0.0)
    with pytest.raises(SpkraugError, match="l_l1 and l_attention must be non-negative"):
        combined_loss(-0.1, 0.0, 0.0)
    with pytest.raises(SpkraugError, match="l_l1 and l_attention must be non-negative"):
        combined_loss(0.0, -1.0, 0.0)
    combined_loss(0.0, 0.0, -1.0)  # the verification term may go negative


def test_loss_weights_validation():
    with pytest.raises(SpkraugError, match=r"loss weights must be finite, got \(1.0, inf, 0.1\)"):
        combined_loss(0.0, 0.0, 0.0, 1.0, float("inf"), 0.1)


# -- cosine-similarity loss --------------------------------------------------

def test_batch_cs_loss_examples():
    a = _set(("a", "s", [1.0, 0.0]))
    assert batch_cs_loss(a, _set(("b", "s", [2.0, 0.0]))) == pytest.approx(0.0)
    assert batch_cs_loss(a, _set(("b", "s", [0.0, 1.0]))) == pytest.approx(1.0)
    assert batch_cs_loss(a, _set(("b", "s", [-1.0, 0.0]))) == pytest.approx(2.0)


def test_batch_cs_loss_averages():
    synth = _set(("a", "s", [1.0, 0.0]), ("b", "s", [1.0, 0.0]))
    natural = _set(("c", "s", [1.0, 0.0]), ("d", "s", [0.0, 1.0]))
    assert batch_cs_loss(synth, natural) == pytest.approx(0.5)


def test_batch_cs_loss_range():
    rng = np.random.default_rng(1)
    synth = _set(*[(f"s{i}", "x", rng.standard_normal(8)) for i in range(20)])
    natural = _set(*[(f"n{i}", "x", rng.standard_normal(8)) for i in range(20)])
    assert 0.0 <= batch_cs_loss(synth, natural) <= 2.0


def test_batch_cs_loss_length_mismatch():
    a = _set(("a", "s", [1.0]))
    with pytest.raises(SpkraugError, match="need equal non-empty batches, got 1 vs 2"):
        batch_cs_loss(a, _set(("a", "s", [1.0]), ("b", "s", [1.0])))
    empty = EmbeddingSet([], [], np.empty((0, 1)))
    with pytest.raises(SpkraugError, match="need equal non-empty batches, got 0 vs 0"):
        batch_cs_loss(empty, empty)


def test_batch_cs_loss_dimension_mismatch():
    with pytest.raises(SpkraugError, match="2 vs 3"):
        batch_cs_loss(_set(("a", "s", [1.0, 0.0])), _set(("b", "s", [1.0, 0.0, 0.0])))


def _cosine_reference(a, b):
    """The per-pair formula the batched scores must reproduce bit for bit."""
    return float(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))


@pytest.mark.parametrize("dim", [64, 160])
def test_batched_cosine_scores_equal_per_pair_exactly(dim):
    rng = np.random.default_rng(dim)
    ids = [f"u{i}" for i in range(200)]
    emb = EmbeddingSet(ids, [f"s{i % 3}" for i in range(200)], rng.standard_normal((200, dim)))
    pairs = [ScoredPair(f"u{i}", f"u{j}", False) for i, j in rng.integers(200, size=(500, 2))]
    row = dict(zip(ids, emb.matrix))
    want = [_cosine_reference(row[p.enroll_id], row[p.test_id]) for p in pairs]
    assert [cosine_similarity(row[p.enroll_id], row[p.test_id]) for p in pairs] == want
    assert [p.score for p in score_pairs(pairs, emb)] == want
    synth = EmbeddingSet(ids[:100], emb.speaker_ids[:100], emb.matrix[:100])
    natural = EmbeddingSet(ids[100:], emb.speaker_ids[100:], emb.matrix[100:])
    sims = [_cosine_reference(s, n) for s, n in zip(synth.matrix, natural.matrix)]
    assert batch_cs_loss(synth, natural) == float(1.0 - np.mean(sims))


# -- equal error rate --------------------------------------------------------

def test_eer_perfectly_separated():
    eer, threshold = equal_error_rate(_pairs([0.8, 0.9, 0.95], [0.1, 0.2, 0.3]))
    assert eer == pytest.approx(0.0)
    assert 0.3 < threshold <= 0.8


def test_eer_fully_overlapping():
    eer, _ = equal_error_rate(_pairs([0.4, 0.6], [0.4, 0.6]))
    assert eer == pytest.approx(0.5)


def test_eer_known_interpolation():
    # one genuine below most impostors: the curves cross at 0.25
    eer, _ = equal_error_rate(_pairs([0.3, 0.7, 0.8, 0.9], [0.1, 0.2, 0.4, 0.5]))
    assert eer == pytest.approx(0.25)


def test_eer_matches_oracle_on_random_lists():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n_g = int(rng.integers(1, 40))
        n_i = int(rng.integers(1, 40))
        genuine = rng.normal(0.6, 0.3, n_g)
        impostor = rng.normal(0.4, 0.3, n_i)
        got_eer, got_t = equal_error_rate(_pairs(genuine, impostor))
        want_eer, want_t = eer_sweep_oracle(genuine, impostor)
        assert got_eer == pytest.approx(want_eer, abs=1e-9)
        assert got_t == pytest.approx(want_t, abs=1e-9)


def test_eer_with_heavy_ties():
    rng = np.random.default_rng(17)
    for _ in range(100):
        genuine = rng.integers(0, 4, size=int(rng.integers(2, 30))) / 4.0
        impostor = rng.integers(0, 4, size=int(rng.integers(2, 30))) / 4.0
        got, _ = equal_error_rate(_pairs(genuine, impostor))
        want, _ = eer_sweep_oracle(genuine, impostor)
        assert got == pytest.approx(want, abs=1e-9)


def test_eer_rank_invariance():
    """EER depends only on score order, so a monotone map must not change it."""
    rng = np.random.default_rng(3)
    genuine = rng.uniform(0.2, 1.0, 25)
    impostor = rng.uniform(0.0, 0.8, 25)
    base, _ = equal_error_rate(_pairs(genuine, impostor))
    warped, _ = equal_error_rate(_pairs(np.tanh(3 * genuine), np.tanh(3 * impostor)))
    assert warped == pytest.approx(base, abs=1e-9)


def test_eer_requires_both_classes():
    with pytest.raises(SpkraugError, match="need both classes, got 1 genuine / 0 impostor"):
        equal_error_rate([ScoredPair("a", "b", True, 0.5)])
    with pytest.raises(SpkraugError, match="need both classes, got 0 genuine / 1 impostor"):
        equal_error_rate([ScoredPair("a", "b", False, 0.5)])


def test_eer_threshold_between_scores_of_opposite_extremes():
    """The two thresholds lie more than the largest float apart."""
    eer, threshold = equal_error_rate(_pairs([-1e308], [-1e308, 1e308]))
    assert eer == pytest.approx(2 / 3)
    assert threshold == pytest.approx(1e308 / 3)


def test_eer_requires_scores():
    with pytest.raises(SpkraugError, match="all pairs must be scored before computing EER"):
        equal_error_rate([ScoredPair("a", "b", True, 0.5), ScoredPair("c", "d", False)])


def test_scored_pair_rejects_nonfinite_score():
    with pytest.raises(SpkraugError, match="pair a/b: score not finite"):
        ScoredPair("a", "b", True, float("nan"))
    ScoredPair("a", "b", True)  # unscored is fine


@pytest.mark.parametrize("enroll_id, test_id, field", [
    (1, "t", "enroll_id"),
    ("e", None, "test_id"),
])
def test_scored_pair_refuses_a_non_string_id(enroll_id, test_id, field):
    with pytest.raises(SpkraugError, match=f"^{field} must be a string, got "):
        ScoredPair(enroll_id, test_id, True)


# -- eer loss ----------------------------------------------------------------

def _reference_pool(rng, speakers=3, per_speaker=6, dim=8, spread=0.1):
    centers = {f"s{k}": rng.standard_normal(dim) for k in range(speakers)}
    rows = []
    for sp, center in centers.items():
        for i in range(per_speaker):
            rows.append((f"{sp}_ref{i}", sp, center + spread * rng.standard_normal(dim)))
    return centers, _set(*rows)


def test_eer_loss_separable_pool_is_zero():
    rng = np.random.default_rng(7)
    centers, pool = _reference_pool(rng, spread=0.01)
    synth = _set(*[(f"{sp}_syn", sp, center + 0.01 * rng.standard_normal(8))
                   for sp, center in centers.items()])
    assert eer_loss(synth, pool, seed=0) == pytest.approx(0.0)


def test_eer_loss_deterministic_per_seed():
    rng = np.random.default_rng(8)
    centers, pool = _reference_pool(rng, spread=1.5)
    synth = _set(*[(f"{sp}_syn{i}", sp, rng.standard_normal(8))
                   for sp in centers for i in range(4)])
    a = eer_loss(synth, pool, seed=5)
    b = eer_loss(synth, pool, seed=5)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_eer_loss_insufficient_references():
    rng = np.random.default_rng(9)
    _, pool = _reference_pool(rng, speakers=2, per_speaker=2)
    lonely = _set(("y", "ghost", rng.standard_normal(8)))
    with pytest.raises(SpkraugError, match="no natural pool utterances for 'ghost'"):
        eer_loss(lonely, pool)
    _, one_speaker = _reference_pool(rng, speakers=1, per_speaker=3)
    synth = _set(("x", "s0", rng.standard_normal(8)))
    with pytest.raises(SpkraugError, match="need naturals from >= 2 speakers, have 1"):
        eer_loss(synth, one_speaker)


def test_eer_loss_equals_pairs_then_eval_eer():
    """The loss draws the trials `pairs` draws, and scores them as `eval eer` does."""
    rng = np.random.default_rng(10)
    centers, natural = _reference_pool(rng, speakers=4, per_speaker=5, spread=1.0)
    synth = _set(*[(f"{sp}_syn{i}", sp, center + rng.standard_normal(8))
                   for sp, center in centers.items() for i in range(3)])
    both = EmbeddingSet(synth.ids + natural.ids, synth.speaker_ids + natural.speaker_ids,
                        np.vstack([synth.matrix, natural.matrix]))

    def manifest(embeddings):
        return Manifest([UtteranceRecord(uid, sp, f"{uid}.wav")
                         for uid, sp in zip(embeddings.ids, embeddings.speaker_ids)])

    for seed in range(5):
        pairs = generate_eer_pairs(manifest(synth), manifest(natural), seed)
        eer, _ = equal_error_rate(score_pairs(pairs, both))
        assert eer_loss(synth, natural, seed) == eer


# -- word error rate ---------------------------------------------------------

def test_wer_identical():
    assert word_error_rate(["a", "b", "c"], ["a", "b", "c"]) == (0.0, 0, 0, 0)


def test_wer_single_substitution():
    wer, s, d, i = word_error_rate(["a", "b", "c"], ["a", "x", "c"])
    assert (wer, s, d, i) == (pytest.approx(1 / 3), 1, 0, 0)


def test_wer_single_insertion():
    wer, s, d, i = word_error_rate(["a", "b"], ["a", "x", "b"])
    assert (wer, s, d, i) == (pytest.approx(0.5), 0, 0, 1)


def test_wer_single_deletion():
    wer, s, d, i = word_error_rate(["a", "b", "c"], ["a", "c"])
    assert (wer, s, d, i) == (pytest.approx(1 / 3), 0, 1, 0)


def test_wer_swap_counts_as_two_substitutions():
    wer, s, d, i = word_error_rate(["a", "b"], ["b", "a"])
    assert (wer, s, d, i) == (pytest.approx(1.0), 2, 0, 0)


def test_wer_empty_hypothesis_is_all_deletions():
    wer, s, d, i = word_error_rate(["a", "b", "c"], [])
    assert (wer, s, d, i) == (pytest.approx(1.0), 0, 3, 0)


def test_wer_can_exceed_one():
    wer, s, d, i = word_error_rate(["a"], ["x", "y", "z"])
    assert wer == pytest.approx(3.0)
    assert s == 1 and i == 2


def test_wer_empty_reference_rejected():
    with pytest.raises(SpkraugError, match="reference transcript has no tokens"):
        word_error_rate([], ["a"])


def test_wer_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(12)
    vocab = list("abcdef")
    for _ in range(300):
        ref = [vocab[k] for k in rng.integers(0, len(vocab), int(rng.integers(1, 12)))]
        hyp = [vocab[k] for k in rng.integers(0, len(vocab), int(rng.integers(0, 12)))]
        got = word_error_rate(ref, hyp)
        want = wer_table_oracle(ref, hyp)
        assert got[0] == pytest.approx(want[0])
        assert got[1:] == want[1:]


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda size: st.tuples(
    st.lists(st.integers(0, size - 1), min_size=1, max_size=14),
    st.lists(st.integers(0, size - 1), max_size=14))))
def test_wer_matches_tuple_loop_exactly(pair):
    ref, hyp = ([f"w{t}" for t in tokens] for tokens in pair)
    got = word_error_rate(ref, hyp)
    want = wer_tuple_loop_oracle(ref, hyp)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want] == [float, int, int, int]


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=10),
       st.data())
def test_wer_subsequence_only_deletes(ref, data):
    keep = data.draw(st.lists(st.booleans(), min_size=len(ref), max_size=len(ref)))
    hyp = [t for t, k in zip(ref, keep) if k]
    wer, s, d, i = word_error_rate(ref, hyp)
    assert s == 0 and i == 0
    assert d == len(ref) - len(hyp)
    assert wer <= 1.0


def test_tokenize_transcript():
    assert tokenize_transcript("Hello,  WORLD!") == ["hello", "world"]
    assert tokenize_transcript('she said: "go."') == ["she", "said", "go"]
    assert tokenize_transcript("don't stop") == ["don't", "stop"]
    assert tokenize_transcript("") == []
    assert tokenize_transcript("  .,;:!?\"  ") == []


# -- pair files --------------------------------------------------------------

def test_pairs_roundtrip_with_and_without_scores(tmp_path):
    pairs = [
        ScoredPair("e1", "t1", True, 0.875),
        ScoredPair("e2", "t2", False),
        ScoredPair("e3", "t3", False, -0.125),
    ]
    path = tmp_path / "pairs.tsv"
    save_pairs(pairs, path)
    back = load_pairs(path)
    assert len(back) == 3
    assert back[0].score == 0.875
    assert back[1].score is None
    assert back[2].same_speaker is False
    assert back[2].score == -0.125
    assert [p.enroll_id for p in back] == ["e1", "e2", "e3"]


def test_load_pairs_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_pairs(tmp_path / "none.tsv")


@pytest.mark.parametrize("content", [
    "",                                  # no pairs at all
    "e1\tt1\n",                          # too few fields
    "e1\tt1\tsame\t0.5\textra\n",        # too many fields
    "e1\tt1\tgenuine\n",                 # unknown label
    "e1\tt1\tsame\tnot_a_number\n",      # bad score
    "e1\tt1\tsame\t-inf\n",              # non-finite score
])
def test_load_pairs_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.tsv"
    path.write_text(content)
    with pytest.raises(SpkraugError, match=r"bad.tsv(:1)?: "):
        load_pairs(path)


def test_load_pairs_names_the_line_of_a_non_finite_score(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("e1\tt1\tsame\t0.5\n\ne2\tt2\tdiff\tnan\n")
    with pytest.raises(SpkraugError, match=r"bad\.tsv:3: pair e2/t2: score not finite"):
        load_pairs(path)


def _holds_as_id(value: str) -> bool:
    """No tab, no break str.splitlines splits at, no character XML 1.0 forbids."""
    return f"x{value}x".splitlines() == [f"x{value}x"] and all(
        c >= " " and not "\ud800" <= c <= "\udfff" and c not in "\ufffe\uffff" for c in value)


# any text, with tabs, line breaks and characters XML 1.0 forbids drawn often
_PAIR_ID = st.text(st.one_of(st.sampled_from("\t\n\r\x0b\x1c\x85\u2028\x00\x01\ufffe\ud800"),
                             st.characters()), max_size=4)
_PAIR_ROW = st.tuples(_PAIR_ID, _PAIR_ID, st.booleans(),
                      st.none() | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, database=None, derandomize=True)
@given(rows=st.lists(_PAIR_ROW, min_size=1, max_size=4))
def test_every_pair_list_loads_back_equal(tmp_path_factory_session, rows):
    """ScoredPair holds only ids a pair file can hold, so every non-empty
    list of pairs that builds is saved and loaded back equal."""
    if all(_holds_as_id(uid) for row in rows for uid in row[:2]):
        pairs = [ScoredPair(*row) for row in rows]
        path = tmp_path_factory_session / "pairs.tsv"
        save_pairs(pairs, path)
        assert load_pairs(path) == pairs
    else:
        with pytest.raises(SpkraugError, match="^(enroll|test)_id must hold no tab or line break"):
            [ScoredPair(*row) for row in rows]


def test_score_pairs_fills_only_missing():
    emb = _set(("a", "s", [1.0, 0.0]), ("b", "s", [0.0, 1.0]))
    pairs = [ScoredPair("a", "b", True), ScoredPair("a", "b", True, 0.9)]
    scored = score_pairs(pairs, emb)
    assert scored[0].score == pytest.approx(0.0)
    assert scored[1].score == 0.9  # pre-existing score untouched


def test_score_pairs_missing_embedding():
    """The first missing enroll id over the unscored pairs, then the first
    missing test id; a scored pair needs no embedding."""
    emb = _set(("a", "s", [1.0, 0.0]))
    with pytest.raises(SpkraugError, match="^no embedding for 'ghost'$"):
        score_pairs([ScoredPair("a", "ghost", True)], emb)
    pairs = [ScoredPair("a", "t1", True), ScoredPair("e1", "a", True), ScoredPair("e2", "t2", True)]
    with pytest.raises(SpkraugError, match="^no embedding for 'e1'$"):
        score_pairs(pairs, emb)
    with pytest.raises(SpkraugError, match="^no embedding for 't1'$"):
        score_pairs(pairs[:1] + [ScoredPair("e1", "a", True, 0.5)], emb)
