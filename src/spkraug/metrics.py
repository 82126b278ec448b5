"""Objective measures: EER, cosine-similarity loss, combined loss, WER.

The combined loss is L = alpha*l_l1 + beta*l_attention + gamma*l_sv, where
the SV term is either the batch cosine-similarity loss or the EER of the
batch against natural references.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import EmbeddingSet, _cosine_rows
from .errors import (
    EmptyReferenceError,
    InsufficientReferencesError,
    LengthMismatchError,
    MissingClassError,
    MissingEmbeddingError,
    NonFiniteError,
    PairFileError,
)
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
            if not np.isfinite(self.score):
                raise NonFiniteError(f"pair {self.enroll_id}/{self.test_id}: score not finite")


@dataclass(frozen=True)
class LossTerms:
    l_l1: float
    l_attention: float
    l_sv: float

    def __post_init__(self):
        vals = (self.l_l1, self.l_attention, self.l_sv)
        if not all(np.isfinite(v) for v in vals):
            raise NonFiniteError(f"loss terms must be finite, got {vals}")
        if self.l_l1 < 0 or self.l_attention < 0:
            raise NonFiniteError("l_l1 and l_attention must be non-negative")


@dataclass(frozen=True)
class LossWeights:
    alpha: float = DEFAULT_LOSS_WEIGHTS[0]
    beta: float = DEFAULT_LOSS_WEIGHTS[1]
    gamma: float = DEFAULT_LOSS_WEIGHTS[2]

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.gamma)
        if not all(np.isfinite(v) for v in vals):
            raise NonFiniteError(f"loss weights must be finite, got {vals}")


def combined_loss(terms: LossTerms, weights: LossWeights) -> float:
    """Weighted sum of the three training-loss terms."""
    return float(weights.alpha * terms.l_l1
                 + weights.beta * terms.l_attention
                 + weights.gamma * terms.l_sv)


def batch_cs_loss(synth, natural) -> float:
    """1 - mean cosine similarity over aligned pairs; 0 when identical."""
    if len(synth) != len(natural) or len(synth) == 0:
        raise LengthMismatchError(
            f"need equal non-empty batches, got {len(synth)} vs {len(natural)}"
        )
    sims = _cosine_rows(np.stack([s.values for s in synth]),
                        np.stack([n.values for n in natural]))
    return float(1.0 - np.mean(sims))


def equal_error_rate(pairs) -> tuple:
    """EER and its threshold from a scored trial list.

    Sweeps every distinct score (plus a sentinel above the maximum) as a
    threshold with FRR(t) = fraction of genuine scores < t and FAR(t) =
    fraction of impostor scores >= t, then interpolates linearly between the
    two operating points where FAR - FRR changes sign.
    """
    if any(p.score is None for p in pairs):
        raise NonFiniteError("all pairs must be scored before computing EER")
    scores = np.array([p.score for p in pairs], dtype=np.float64)
    same = np.array([p.same_speaker for p in pairs], dtype=bool)
    return _eer(scores[same], scores[~same])


def _eer(genuine: np.ndarray, impostor: np.ndarray) -> tuple:
    """equal_error_rate's sweep over score arrays, one sort per class."""
    if len(genuine) == 0 or len(impostor) == 0:
        raise MissingClassError(
            f"need both classes, got {len(genuine)} genuine / {len(impostor)} impostor"
        )
    scores = np.unique(np.concatenate([genuine, impostor]))
    thresholds = np.append(scores, scores[-1] + 1.0)
    # counts are exact, so count / n equals np.mean of the comparison bit for bit
    frr = np.searchsorted(np.sort(genuine), thresholds) / len(genuine)
    far = (len(impostor) - np.searchsorted(np.sort(impostor), thresholds)) / len(impostor)
    diff = far - frr
    i = int(np.argmax(diff <= 0.0))  # the first threshold has far = 1, frr = 0
    if diff[i] == 0.0:
        return float(frr[i]), float(thresholds[i])
    # crossing lies between the previous threshold and this one
    lam = diff[i - 1] / (diff[i - 1] - diff[i])
    eer = frr[i - 1] + lam * (frr[i] - frr[i - 1])
    return float(eer), float(thresholds[i - 1] + lam * (thresholds[i] - thresholds[i - 1]))


def eer_loss(batch_synth: EmbeddingSet, reference_pool: EmbeddingSet,
             per_utterance_refs: int = 1, seed: int = 0) -> float:
    """EER of synthesized embeddings against sampled natural references.

    Each synthesized utterance is paired with `per_utterance_refs` natural
    utterances of its own speaker and the same number from other speakers,
    drawn without replacement by a generator derived from `seed`.
    """
    if per_utterance_refs < 1:
        raise InsufficientReferencesError(
            f"per_utterance_refs must be >= 1, got {per_utterance_refs}"
        )
    references = np.array(reference_pool.speaker_ids)
    pools = {speaker: (np.flatnonzero(references == speaker),
                       np.flatnonzero(references != speaker))
             for speaker in set(batch_synth.speaker_ids)}

    rng = rng_for(seed, "metrics.eer_loss")
    ref_rows = []
    for speaker in batch_synth.speaker_ids:
        same, diff = pools[speaker]
        if len(same) < per_utterance_refs or len(diff) < per_utterance_refs:
            raise InsufficientReferencesError(
                f"speaker {speaker!r}: have {len(same)} same / {len(diff)} other "
                f"references, need {per_utterance_refs} of each"
            )
        for pool in (same, diff):
            ref_rows.extend(pool[rng.choice(len(pool), size=per_utterance_refs, replace=False)])
    synth = np.repeat(batch_synth.matrix, 2 * per_utterance_refs, axis=0)
    scores = _cosine_rows(synth, reference_pool.matrix[ref_rows])
    genuine = np.tile(np.repeat([True, False], per_utterance_refs), len(batch_synth))
    eer, _ = _eer(scores[genuine], scores[~genuine])
    return eer


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
        raise EmptyReferenceError("reference transcript has no tokens")

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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_pairs(path) -> list:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    pairs = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise PairFileError(f"{path}:{lineno}: expected 3 or 4 fields, found {len(parts)}")
        if parts[2] not in ("same", "diff"):
            raise PairFileError(f"{path}:{lineno}: label must be same|diff, got {parts[2]!r}")
        score = None
        if len(parts) == 4:
            try:
                score = float(parts[3])
            except ValueError:
                raise PairFileError(f"{path}:{lineno}: bad score {parts[3]!r}") from None
        pairs.append(ScoredPair(parts[0], parts[1], parts[2] == "same", score))
    if not pairs:
        raise PairFileError(f"{path}: no pairs found")
    return pairs


def score_pairs(pairs, embeddings: EmbeddingSet) -> list:
    """Fill in missing scores using cosine similarity of stored embeddings."""
    todo = [p for p in pairs if p.score is None]
    for p in todo:
        for uid in (p.enroll_id, p.test_id):
            if uid not in embeddings:
                raise MissingEmbeddingError(f"no embedding for utterance {uid!r}")
    scores = iter(_cosine_rows(embeddings._rows(p.enroll_id for p in todo),
                               embeddings._rows(p.test_id for p in todo)))
    return [p if p.score is not None
            else ScoredPair(p.enroll_id, p.test_id, p.same_speaker, next(scores))
            for p in pairs]
