"""Exception types shared across the package."""


class MultirateError(Exception):
    """A numerical failure, which a trial records rather than raises.

    Bad input (a delay out of range, predictions asked of a system that is
    not tall, malformed dimensions or matrices) is a ValueError instead.
    """


class ResolventSingular(MultirateError):
    """Z*I - A_tau is too ill-conditioned to solve against."""


class ConvergenceFailure(MultirateError):
    """An SVD, solve or eigensolver failed to converge."""
