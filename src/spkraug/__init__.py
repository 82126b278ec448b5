"""Speech-corpus engineering toolkit for speaker-similarity-driven TTS work:
resampling/PSOLA augmentation, stand-in speaker embeddings, EER/CS/WER
metrics, exact t-SNE, and corpus manifest plumbing."""

from .audio_io import AudioClip, read_wav, speed_change, write_wav
from .dataset import (
    AugmentationJob,
    Manifest,
    UtteranceRecord,
    execute_plan,
    generate_eer_pairs,
    load_manifest,
    plan_augmentation,
    save_manifest,
    select_best_augmented,
    select_subset,
)
from .embedding import (
    EmbeddingSet,
    cosine_similarity,
    euclidean_distance,
    extract_standin_embedding,
    load_embeddings,
    save_embeddings,
    select_k_nearest,
)
from .errors import SpkraugError
from .metrics import (
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
from .psola import estimate_f0, place_pitch_marks, psola_modify
from .spectral import (
    Spectrogram,
    griffin_lim,
    istft,
    magnitude_spectrogram,
    read_spectrogram,
    stft,
    write_spectrogram,
)
from .tsne import conditional_probabilities, kl_divergence, kl_gradient, run_tsne

__version__ = "0.1.0"

__all__ = [
    "AudioClip", "read_wav", "write_wav", "speed_change",
    "Spectrogram", "stft", "istft", "magnitude_spectrogram", "griffin_lim",
    "read_spectrogram", "write_spectrogram",
    "estimate_f0", "place_pitch_marks", "psola_modify",
    "EmbeddingSet", "cosine_similarity", "euclidean_distance",
    "select_k_nearest", "extract_standin_embedding",
    "load_embeddings", "save_embeddings",
    "ScoredPair", "combined_loss", "batch_cs_loss",
    "equal_error_rate", "eer_loss", "word_error_rate", "tokenize_transcript",
    "load_pairs", "save_pairs", "score_pairs",
    "conditional_probabilities", "kl_gradient", "kl_divergence", "run_tsne",
    "UtteranceRecord", "Manifest", "AugmentationJob", "load_manifest", "save_manifest",
    "select_subset", "plan_augmentation", "execute_plan", "select_best_augmented",
    "generate_eer_pairs",
    "SpkraugError",
    "__version__",
]
