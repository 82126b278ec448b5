"""Speech-corpus engineering toolkit for speaker-similarity-driven TTS work:
resampling/PSOLA augmentation, stand-in speaker embeddings, EER/CS/WER
metrics, exact t-SNE, and corpus manifest plumbing."""

__version__ = "0.1.0"
