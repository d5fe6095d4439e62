"""Exception hierarchy shared across the package, and the typed getter
that every JSON input reader uses.

The CLI maps these onto process exit codes, so new error conditions
should subclass one of the existing categories rather than raising
bare ValueErrors from deep inside the pipeline.
"""


class GradusError(Exception):
    """Base class for all package errors."""


class PhraseParseError(GradusError):
    """Malformed phrase/score/config document."""


class PhraseValidationError(GradusError):
    """Structurally well-formed input violating a model invariant."""


class SpellingError(GradusError):
    """Pitch or key that cannot be spelled within double accidentals."""


class CheckpointError(GradusError):
    """Checkpoint missing, corrupt, or incompatible with the config."""


class FusionInfeasibleError(GradusError):
    """No phrase assignment satisfies the structure template."""

    def __init__(self, slot_index: int, message: str):
        super().__init__(message)
        self.slot_index = slot_index


_REQUIRED = object()
_KIND_NAMES = {
    bool: "true or false", int: "an integer", float: "a number",
    str: "a string", dict: "a JSON object", list: "a JSON list",
}


def _get(obj: dict, key: str, kind: type, where: str = "config", default=_REQUIRED,
         error: type = PhraseValidationError):
    """obj[key] as kind, refusing a JSON value of another type: an integer
    passes as a number, but a string never does, nor a bool as an integer.
    A missing required key or a refused value raises ``error``."""
    if key not in obj:
        if default is _REQUIRED:
            raise error(f"{where} is missing required key {key!r}")
        return default
    value = obj[key]
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or (kind is not bool and isinstance(value, bool)):
        raise error(f"{where} key {key!r} must be {_KIND_NAMES[kind]}, not {value!r}")
    return kind(value)
