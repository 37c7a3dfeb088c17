"""Exceptions shared across the package, and the descriptor field check."""


class QuantcatError(Exception):
    """Base class for all package errors."""


class CapExceeded(QuantcatError):
    """An enumeration would exceed its configured size cap."""

    def __init__(self, what, size, cap):
        super().__init__(f"{what}: size {size} exceeds cap {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class DescriptorError(QuantcatError):
    """A JSON descriptor or element id failed to parse or validate."""


def require_fields(d, required, optional=(), what="descriptor"):
    if not isinstance(d, dict):
        raise DescriptorError(f"{what} must be a JSON object")
    missing = [f for f in required if f not in d]
    if missing:
        raise DescriptorError(f"{what} missing fields {missing}")
    unknown = [f for f in d if f not in required and f not in optional]
    if unknown:
        raise DescriptorError(f"{what} has unknown fields {unknown}")


class ConsistencyError(QuantcatError):
    """An internal invariant failed; the input object was malformed."""


class LawFailure(ConsistencyError):
    """An input object breaks a law; ``report`` holds every law checked."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class IterationGuard(QuantcatError):
    """A fixpoint ran past its bound.  Only ``cantor_check`` raises it, after
    n + 2 steps over n increasing subsets: for phi injective and initial,
    I -> up-closure(phi(I)) is monotone, so it descends and repeats in n."""
