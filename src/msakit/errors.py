"""Exception types shared across the package."""


class ModelError(ValueError):
    """Semantic problem with a model: bad input to a builder, bad references,
    ill-posed structure, unresolvable stiffness queries."""


class FormatError(ModelError):
    """Malformed model document; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message
