"""Exception types shared across fuselab."""


class FuselabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(FuselabError):
    """Array dimensions do not line up (carries the offending layer when known)."""


class ValidationError(FuselabError):
    """A value violates a structural invariant (finite entries, chains, ranges)."""


class ParseError(FuselabError):
    """A file or config could not be parsed; names the violated field."""


class ConfigurationError(FuselabError):
    """Inconsistent or unsupported configuration was requested."""


class NumericalError(FuselabError):
    """A linear-algebra step failed or hit a conditioning floor."""


class GammaSelectionError(FuselabError):
    """Every regularization candidate failed during selection."""


class TrainingDivergedError(FuselabError):
    """Training produced a non-finite loss. In a pool of several models,
    model_index names the model, and the message starts with it."""

    def __init__(self, epoch, batch, message=None, model_index=None,
                 seed_tag=None):
        self.epoch = epoch
        self.batch = batch
        self.model_index = model_index
        message = message or f"non-finite loss at epoch {epoch}, batch {batch}"
        if model_index is not None:
            message = f"model {model_index} ({seed_tag}): {message}"
        super().__init__(message)
