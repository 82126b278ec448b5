"""The toolkit's one exception type.

Every problem the toolkit detects raises :class:`SpkraugError`, a
``ValueError``, with a message that says what is wrong: a defect in an input
file names its ``path`` or ``path:line``. Only a file that cannot be opened or
written at all raises the builtin ``OSError``. The CLI reports either as one
error line and exits 1.
"""


class SpkraugError(ValueError):
    """An invalid input, argument or file."""
