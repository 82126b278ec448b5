"""Objective measures: EER, cosine-similarity loss, combined loss, WER.

The combined loss is L = alpha*l_l1 + beta*l_attention + gamma*l_sv, where
the SV term is either the batch cosine-similarity loss or the EER of the
batch against natural references.
"""

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import _text_lines, _write_lines
from .embedding import EmbeddingSet, _cosine_rows
from .errors import SpkraugError
from .rng import rng_for

DEFAULT_LOSS_WEIGHTS = (1.0, 1.0, 0.1)  # not from any publication; see README
WER_PUNCTUATION = '.,;:!?"'


@dataclass
class ScoredPair:
    """One verification trial; score is None until it has been computed."""

    enroll_id: str
    test_id: str
    same_speaker: bool
    score: float = None

    def __post_init__(self):
        if self.score is not None:
            self.score = float(self.score)
            if not math.isfinite(self.score):
                raise SpkraugError(f"pair {self.enroll_id}/{self.test_id}: score not finite")


def combined_loss(l_l1: float, l_attention: float, l_sv: float,
                  alpha: float = DEFAULT_LOSS_WEIGHTS[0], beta: float = DEFAULT_LOSS_WEIGHTS[1],
                  gamma: float = DEFAULT_LOSS_WEIGHTS[2]) -> float:
    """alpha*l_l1 + beta*l_attention + gamma*l_sv. Every value, and the sum,
    must be finite, and l_l1 and l_attention non-negative; l_sv may be negative."""
    if not all(np.isfinite(v) for v in (l_l1, l_attention, l_sv)):
        raise SpkraugError(f"loss terms must be finite, got {(l_l1, l_attention, l_sv)}")
    if l_l1 < 0 or l_attention < 0:
        raise SpkraugError("l_l1 and l_attention must be non-negative")
    if not all(np.isfinite(v) for v in (alpha, beta, gamma)):
        raise SpkraugError(f"loss weights must be finite, got {(alpha, beta, gamma)}")
    loss = float(alpha * l_l1 + beta * l_attention + gamma * l_sv)
    if not math.isfinite(loss):
        raise SpkraugError(f"weighted loss is not finite: {loss}")
    return loss


def batch_cs_loss(synth: EmbeddingSet, natural: EmbeddingSet) -> float:
    """1 - mean cosine similarity over aligned rows; 0 when identical.

    Rows are paired by position: row i of synth is scored against row i of
    natural, and ids are not compared, so a synthesised set may carry its
    own ids (e.g. child ids against their natural parents' ids).
    """
    if len(synth) != len(natural) or len(synth) == 0:
        raise SpkraugError(
            f"need equal non-empty batches, got {len(synth)} vs {len(natural)}"
        )
    sims = _cosine_rows(synth.matrix, natural.matrix)
    return float(1.0 - np.mean(sims))


def equal_error_rate(pairs) -> tuple:
    """EER and its threshold from a scored trial list.

    Sweeps every distinct score (plus a sentinel above the maximum) as a
    threshold with FRR(t) = fraction of genuine scores < t and FAR(t) =
    fraction of impostor scores >= t, then interpolates linearly between the
    two operating points where FAR - FRR changes sign.
    """
    if any(p.score is None for p in pairs):
        raise SpkraugError("all pairs must be scored before computing EER")
    scores = np.array([p.score for p in pairs], dtype=np.float64)
    same = np.array([p.same_speaker for p in pairs], dtype=bool)
    genuine, impostor = scores[same], scores[~same]
    if len(genuine) == 0 or len(impostor) == 0:
        raise SpkraugError(
            f"need both classes, got {len(genuine)} genuine / {len(impostor)} impostor"
        )
    # np.unique's own sort-and-mask, without the numpy.ma import its first call pays
    scores = np.sort(np.concatenate([genuine, impostor]))
    scores = scores[np.concatenate(([True], scores[1:] != scores[:-1]))]
    top = float(scores[-1])
    sentinel = top + 1.0
    if sentinel == top:  # top >= 2**53: the next float up is the nearest threshold above it
        sentinel = math.nextafter(top, math.inf)
        if math.isinf(sentinel):
            raise SpkraugError(f"no finite threshold lies above the top score {top!r}")
    thresholds = np.append(scores, sentinel)
    # counts are exact, so count / n equals np.mean of the comparison bit for bit
    frr = np.searchsorted(np.sort(genuine), thresholds) / len(genuine)
    far = (len(impostor) - np.searchsorted(np.sort(impostor), thresholds)) / len(impostor)
    diff = far - frr
    i = int(np.argmax(diff <= 0.0))  # the first threshold has far = 1, frr = 0
    if diff[i] == 0.0:
        return float(frr[i]), float(thresholds[i])
    # crossing lies between the previous threshold and this one
    lam = float(diff[i - 1] / (diff[i - 1] - diff[i]))
    eer = frr[i - 1] + lam * (frr[i] - frr[i - 1])
    low, high = float(thresholds[i - 1]), float(thresholds[i])
    threshold = low + lam * (high - low)
    if math.isinf(threshold):  # high - low overflowed; weigh the two ends instead
        threshold = (1.0 - lam) * low + lam * high
    return float(eer), threshold


def eer_loss(batch_synth: EmbeddingSet, reference_pool: EmbeddingSet, seed: int = 0) -> float:
    """EER of synthesized embeddings against natural references.

    The trials are those `pairs` draws (dataset.generate_eer_pairs): one
    genuine and one impostor reference per synthesized row. They are scored
    as `eval eer --embeddings` scores them, so for sets that hold the same ids
    and speakers as the `pairs` manifests, and the same seed, the result
    equals what `pairs` + `eval eer` report, bit for bit.
    """
    trials = _draw_trials(zip(batch_synth.ids, batch_synth.speaker_ids),
                          zip(reference_pool.ids, reference_pool.speaker_ids), seed)
    return equal_error_rate(_scored(trials, batch_synth, reference_pool))[0]


def _scored(trials, enroll_set: EmbeddingSet, test_set: EmbeddingSet) -> list:
    """The trials scored by the cosine similarity of each enroll row of
    enroll_set with its test row of test_set."""
    scores = _cosine_rows(enroll_set._rows(t.enroll_id for t in trials),
                          test_set._rows(t.test_id for t in trials))
    return [ScoredPair(t.enroll_id, t.test_id, t.same_speaker, score)
            for t, score in zip(trials, scores.tolist())]


def _draw_trials(items, pool, seed: int) -> list:
    """Two unscored ScoredPair trials per item: one genuine, one impostor.

    `items` and `pool` are (utterance_id, speaker_id) pairs. The genuine
    partner is a seeded uniform draw from the item's speaker in `pool`; the
    impostor partner comes from a uniformly drawn different speaker.
    """
    pool_by_speaker = {}
    for uid, speaker in pool:
        pool_by_speaker.setdefault(speaker, []).append(uid)
    for ids in pool_by_speaker.values():
        ids.sort()
    speakers = sorted(pool_by_speaker)
    if len(speakers) < 2:
        raise SpkraugError(f"need naturals from >= 2 speakers, have {len(speakers)}")
    others = {s: [o for o in speakers if o != s] for s in speakers}

    # eer_loss shares the pairs stream on purpose: both draw the same trials
    rng = rng_for(seed, "dataset.generate_eer_pairs")
    trials = []
    for uid, speaker in items:
        own = pool_by_speaker.get(speaker)
        if not own:
            raise SpkraugError(f"no natural pool utterances for {speaker!r}")
        same_id = own[int(rng.integers(len(own)))]
        other = others[speaker]
        other_ids = pool_by_speaker[other[int(rng.integers(len(other)))]]
        diff_id = other_ids[int(rng.integers(len(other_ids)))]
        trials += [ScoredPair(uid, same_id, True), ScoredPair(uid, diff_id, False)]
    return trials


def word_error_rate(reference, hypothesis) -> tuple:
    """(WER, substitutions, deletions, insertions) via Levenshtein alignment.

    Unit costs; on ties the alignment prefers substitution, then insertion,
    then deletion, which fixes the reported count split deterministically.

    The DP runs one reference token at a time over NumPy rows of (distance,
    subs, dels); insertions are the rest of the distance. Each cell first
    takes the diagonal (match or substitution) unless the deletion is
    strictly cheaper; the insertion chain along the row is then one running
    minimum over the cells it could start from.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise SpkraugError("reference transcript has no tokens")

    vocab = {}
    ref_ids = np.array([vocab.setdefault(t, len(vocab)) for t in ref], dtype=np.int64)
    hyp_ids = np.array([vocab.setdefault(t, len(vocab)) for t in hyp], dtype=np.int64)
    m = len(hyp)
    col = np.arange(m + 1)
    # a chain from column k reaches column j at cost d_k + (j - k); among equal
    # costs a diagonal start wins over a deletion start (and the column-0 cell,
    # which is all deletions), the latest diagonal wins among diagonals and the
    # earliest deletion among deletions, exactly as the cell-by-cell rule does
    diag_rank = m + 1 - col
    step_del = np.array([[1], [0], [1]])
    prev = np.zeros((3, m + 1), dtype=np.int64)  # distance, subs, dels; ins is the rest
    prev[0] = col
    for i, token in enumerate(ref_ids, start=1):
        miss = hyp_ids != token
        diag = prev[:, :-1].copy()
        diag[:2] += miss
        delete = prev[:, 1:] + step_del
        from_diag = np.concatenate(([False], diag[0] <= delete[0]))
        cand = np.empty_like(prev)
        cand[:, 0] = (i, 0, i)
        cand[:, 1:] = np.where(from_diag[1:], diag, delete)
        key = (2 * (cand[0] - col) - from_diag) * (m + 2) + np.where(from_diag, diag_rank, col)
        start = np.maximum.accumulate(np.where(key == np.minimum.accumulate(key), col, 0))
        prev = cand[:, start]
        prev[0] += col - start

    dist, subs, dels = (int(v) for v in prev[:, m])
    ins = dist - subs - dels
    return (subs + dels + ins) / len(ref), subs, dels, ins


def tokenize_transcript(text: str) -> list:
    """Lowercase, drop `.,;:!?"` characters, split on whitespace."""
    cleaned = text.lower().translate({ord(c): None for c in WER_PUNCTUATION})
    return cleaned.split()


def save_pairs(pairs, path) -> None:
    """TSV rows enroll, test, same|diff, and the score when present."""
    lines = []
    for p in pairs:
        label = "same" if p.same_speaker else "diff"
        row = f"{p.enroll_id}\t{p.test_id}\t{label}"
        if p.score is not None:
            row += f"\t{repr(float(p.score))}"
        lines.append(row)
    _write_lines(path, lines)


def load_pairs(path) -> list:
    pairs = []
    for lineno, line in _text_lines(path):
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise SpkraugError(f"{path}:{lineno}: expected 3 or 4 fields, found {len(parts)}")
        if parts[2] not in ("same", "diff"):
            raise SpkraugError(f"{path}:{lineno}: label must be same|diff, got {parts[2]!r}")
        score = None
        if len(parts) == 4:
            try:
                score = float(parts[3])
            except ValueError:
                raise SpkraugError(f"{path}:{lineno}: bad score {parts[3]!r}") from None
            if not math.isfinite(score):
                raise SpkraugError(f"{path}:{lineno}: score not finite: {parts[3]!r}")
        pairs.append(ScoredPair(parts[0], parts[1], parts[2] == "same", score))
    if not pairs:
        raise SpkraugError(f"{path}: no pairs found")
    return pairs


def score_pairs(pairs, embeddings: EmbeddingSet) -> list:
    """Fill in missing scores using cosine similarity of stored embeddings."""
    todo = [p for p in pairs if p.score is None]
    for p in todo:
        for uid in (p.enroll_id, p.test_id):
            if uid not in embeddings:
                raise SpkraugError(f"no embedding for utterance {uid!r}")
    scored = iter(_scored(todo, embeddings, embeddings))
    return [p if p.score is not None else next(scored) for p in pairs]
