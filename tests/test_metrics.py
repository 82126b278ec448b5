import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eer_sweep_oracle, wer_table_oracle, wer_tuple_loop_oracle
from spkraug.embedding import EmbeddingSet, EmbeddingVector, cosine_similarity
from spkraug.errors import (
    DimensionMismatchError,
    EmptyReferenceError,
    InsufficientReferencesError,
    LengthMismatchError,
    MissingClassError,
    MissingEmbeddingError,
    NonFiniteError,
    PairFileError,
)
from spkraug.metrics import (
    DEFAULT_LOSS_WEIGHTS,
    LossTerms,
    LossWeights,
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


def _vec(uid, speaker, *values):
    return EmbeddingVector(uid, speaker, np.array(values, dtype=float))


def _pairs(genuine, impostor):
    out = [ScoredPair(f"g{i}", f"g{i}b", True, s) for i, s in enumerate(genuine)]
    out += [ScoredPair(f"i{i}", f"i{i}b", False, s) for i, s in enumerate(impostor)]
    return out


# -- combined loss -----------------------------------------------------------

def test_combined_loss_example():
    value = combined_loss(LossTerms(2.0, 3.0, 4.0), LossWeights(1.0, 1.0, 0.1))
    assert value == pytest.approx(2.0 + 3.0 + 0.4)


def test_combined_loss_defaults():
    assert LossWeights() == LossWeights(*DEFAULT_LOSS_WEIGHTS)
    assert combined_loss(LossTerms(1.0, 1.0, 1.0), LossWeights()) == pytest.approx(2.1)


def test_combined_loss_is_linear_in_each_weight():
    terms = LossTerms(0.5, 1.5, 2.5)
    base = combined_loss(terms, LossWeights(1.0, 1.0, 1.0))
    bumped = combined_loss(terms, LossWeights(2.0, 1.0, 1.0))
    assert bumped - base == pytest.approx(0.5)


def test_loss_terms_validation():
    with pytest.raises(NonFiniteError):
        LossTerms(float("nan"), 0.0, 0.0)
    with pytest.raises(NonFiniteError):
        LossTerms(-0.1, 0.0, 0.0)
    with pytest.raises(NonFiniteError):
        LossTerms(0.0, -1.0, 0.0)
    LossTerms(0.0, 0.0, -1.0)  # the verification term may go negative


def test_loss_weights_validation():
    with pytest.raises(NonFiniteError):
        LossWeights(1.0, float("inf"), 0.1)


# -- cosine-similarity loss --------------------------------------------------

def test_batch_cs_loss_examples():
    a = [_vec("a", "s", 1.0, 0.0)]
    assert batch_cs_loss(a, [_vec("b", "s", 2.0, 0.0)]) == pytest.approx(0.0)
    assert batch_cs_loss(a, [_vec("b", "s", 0.0, 1.0)]) == pytest.approx(1.0)
    assert batch_cs_loss(a, [_vec("b", "s", -1.0, 0.0)]) == pytest.approx(2.0)


def test_batch_cs_loss_averages():
    synth = [_vec("a", "s", 1.0, 0.0), _vec("b", "s", 1.0, 0.0)]
    natural = [_vec("c", "s", 1.0, 0.0), _vec("d", "s", 0.0, 1.0)]
    assert batch_cs_loss(synth, natural) == pytest.approx(0.5)


def test_batch_cs_loss_range():
    rng = np.random.default_rng(1)
    synth = [_vec(f"s{i}", "x", *rng.standard_normal(8)) for i in range(20)]
    natural = [_vec(f"n{i}", "x", *rng.standard_normal(8)) for i in range(20)]
    assert 0.0 <= batch_cs_loss(synth, natural) <= 2.0


def test_batch_cs_loss_length_mismatch():
    a = [_vec("a", "s", 1.0)]
    with pytest.raises(LengthMismatchError):
        batch_cs_loss(a, a + a)
    with pytest.raises(LengthMismatchError):
        batch_cs_loss([], [])


def test_batch_cs_loss_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        batch_cs_loss([_vec("a", "s", 1.0, 0.0)], [_vec("b", "s", 1.0, 0.0, 0.0)])


def _cosine_reference(a, b):
    """The per-pair formula the batched scores must reproduce bit for bit."""
    return float(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))


@pytest.mark.parametrize("dim", [64, 160])
def test_batched_cosine_scores_equal_per_pair_exactly(dim):
    rng = np.random.default_rng(dim)
    emb = EmbeddingSet.from_entries([
        EmbeddingVector(f"u{i}", f"s{i % 3}", rng.standard_normal(dim)) for i in range(200)
    ])
    pairs = [ScoredPair(f"u{i}", f"u{j}", False) for i, j in rng.integers(200, size=(500, 2))]
    want = [_cosine_reference(emb.get(p.enroll_id).values, emb.get(p.test_id).values)
            for p in pairs]
    assert [cosine_similarity(emb.get(p.enroll_id), emb.get(p.test_id)) for p in pairs] == want
    assert [p.score for p in score_pairs(pairs, emb)] == want
    synth, natural = list(emb)[:100], list(emb)[100:]
    sims = [_cosine_reference(s.values, n.values) for s, n in zip(synth, natural)]
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
    with pytest.raises(MissingClassError):
        equal_error_rate([ScoredPair("a", "b", True, 0.5)])
    with pytest.raises(MissingClassError):
        equal_error_rate([ScoredPair("a", "b", False, 0.5)])


def test_eer_requires_scores():
    with pytest.raises(NonFiniteError):
        equal_error_rate([ScoredPair("a", "b", True, 0.5), ScoredPair("c", "d", False)])


def test_scored_pair_rejects_nonfinite_score():
    with pytest.raises(NonFiniteError):
        ScoredPair("a", "b", True, float("nan"))
    ScoredPair("a", "b", True)  # unscored is fine


# -- eer loss ----------------------------------------------------------------

def _reference_pool(rng, speakers=3, per_speaker=6, dim=8, spread=0.1):
    centers = {f"s{k}": rng.standard_normal(dim) for k in range(speakers)}
    entries = []
    for sp, center in centers.items():
        for i in range(per_speaker):
            entries.append(EmbeddingVector(f"{sp}_ref{i}", sp,
                                           center + spread * rng.standard_normal(dim)))
    return centers, EmbeddingSet.from_entries(entries)


def test_eer_loss_separable_pool_is_zero():
    rng = np.random.default_rng(7)
    centers, pool = _reference_pool(rng, spread=0.01)
    synth = EmbeddingSet.from_entries([
        EmbeddingVector(f"{sp}_syn", sp, center + 0.01 * rng.standard_normal(8))
        for sp, center in centers.items()
    ])
    assert eer_loss(synth, pool, per_utterance_refs=2, seed=0) == pytest.approx(0.0)


def test_eer_loss_deterministic_per_seed():
    rng = np.random.default_rng(8)
    centers, pool = _reference_pool(rng, spread=1.5)
    synth = EmbeddingSet.from_entries([
        EmbeddingVector(f"{sp}_syn{i}", sp, rng.standard_normal(8))
        for sp in centers for i in range(4)
    ])
    a = eer_loss(synth, pool, per_utterance_refs=2, seed=5)
    b = eer_loss(synth, pool, per_utterance_refs=2, seed=5)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_eer_loss_insufficient_references():
    rng = np.random.default_rng(9)
    _, pool = _reference_pool(rng, speakers=2, per_speaker=2)
    synth = EmbeddingSet.from_entries([EmbeddingVector("x", "s0", rng.standard_normal(8))])
    with pytest.raises(InsufficientReferencesError):
        eer_loss(synth, pool, per_utterance_refs=3)
    with pytest.raises(InsufficientReferencesError):
        eer_loss(synth, pool, per_utterance_refs=0)
    lonely = EmbeddingSet.from_entries([EmbeddingVector("y", "ghost", rng.standard_normal(8))])
    with pytest.raises(InsufficientReferencesError):
        eer_loss(lonely, pool)


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
    with pytest.raises(EmptyReferenceError):
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
])
def test_load_pairs_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.tsv"
    path.write_text(content)
    with pytest.raises(PairFileError):
        load_pairs(path)


def test_score_pairs_fills_only_missing():
    emb = EmbeddingSet.from_entries([
        _vec("a", "s", 1.0, 0.0),
        _vec("b", "s", 0.0, 1.0),
    ])
    pairs = [ScoredPair("a", "b", True), ScoredPair("a", "b", True, 0.9)]
    scored = score_pairs(pairs, emb)
    assert scored[0].score == pytest.approx(0.0)
    assert scored[1].score == 0.9  # pre-existing score untouched


def test_score_pairs_missing_embedding():
    emb = EmbeddingSet.from_entries([_vec("a", "s", 1.0, 0.0)])
    with pytest.raises(MissingEmbeddingError):
        score_pairs([ScoredPair("a", "ghost", True)], emb)
