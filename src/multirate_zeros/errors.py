"""Exception types shared across the package."""


class MultirateError(Exception):
    """Base class for all errors raised by this package."""


class TauOutOfRange(MultirateError):
    """Blocking delay tau must be an integer in 1..N."""

    def __init__(self, tau, N: int):
        super().__init__(f"blocking delay tau must be an integer in 1..{N}, got {tau!r}")
        self.tau = tau
        self.N = N


class ResolventSingular(MultirateError):
    """Z*I - A_tau is too ill-conditioned to solve against."""


class NotTallClass(MultirateError):
    """The closed-form predictions only cover tall systems."""

    def __init__(self, detail: str = ""):
        msg = "predictions require a tall system (N*p1 + p2 > N*m)"
        super().__init__(msg + (f": {detail}" if detail else ""))


class ConvergenceFailure(MultirateError):
    """An SVD, solve or eigensolver failed to converge."""
