"""Exception hierarchy shared by all disclab modules."""


class DisclabError(Exception):
    pass


class DomainError(DisclabError, ValueError):
    """Mathematical precondition violated (point outside disc, bad parameter)."""


class InputError(DisclabError, ValueError):
    """Malformed user input: overlapping arcs, unparsable files, bad specs."""


class NumericalError(DisclabError, RuntimeError):
    """A solver failed: singular system, non-SPD matrix, lost accuracy."""


class ResolutionError(DisclabError, ValueError):
    """Grid too coarse to resolve a plate; message names the plate."""
