"""Every public function and class in the package has a caller or a reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spkraug"

# Public module-level callables that nothing inside the package refers to,
# each kept for a stated reason. Any other one without a caller is dead code.
CALLER_LESS_KEEP = {
    "cosine_similarity": "a perfbench TARGETS layer; deleted with ROADMAP items 1 and 4",
    "euclidean_distance": "a perfbench TARGETS layer; deleted with ROADMAP items 1 and 4",
    "psola_modify": "a perfbench TARGETS layer; deleted with ROADMAP items 1 and 4",
    "magnitude_spectrogram": "a perfbench TARGETS layer; deleted with ROADMAP items 1 and 4",
    "istft": "the STFT reconstruction oracle judges it",
    "write_spectrogram": "the only writer of the .spg files vocode reads",
    "kl_divergence": "the benchmark fingerprint's tsne_final_kl",
    "eer_loss": "ROADMAP item 4 gives it a caller",
    "entrypoint": "the `spkraug` console script in pyproject.toml",
}


def caller_less_names(src: Path) -> set:
    """Public module-level def and class names in src/*.py that no Name or
    Attribute node in those files refers to."""
    defined, refs = set(), set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return defined - refs


def test_every_exported_callable_has_a_caller_or_a_reason():
    """The keep-list is exact: a callable that gains a caller leaves it."""
    assert caller_less_names(SRC) == set(CALLER_LESS_KEEP)


def test_a_new_function_without_a_caller_fails_the_guard(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\nused()\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("def orphan():\n    pass\n\n\nclass _Private:\n    pass\n",
                                   encoding="utf-8")
    assert caller_less_names(tmp_path) == {"orphan"}
