"""Exceptions shared across the package.

Every error that aborts a construction carries a witness: enough data to
reproduce the failure by hand on small inputs.  A cap refusal carries the
count it reached: ``check_cap`` is where every one is decided and worded.
"""

DEFAULT_MAX_CELLS = 10 ** 6


class TopologyError(Exception):
    """Base class for all structural failures raised by this package."""


class NonOrientableError(TopologyError):
    """Coherent sign propagation failed.

    ``witness`` is a triple (facet, index_a, index_b): the two top simplices
    whose induced orientations on the shared facet cannot be made opposite.
    ``signs``, when given, are the propagated signs under which the two
    induce the same sign on that facet.
    """

    def __init__(self, message: str, witness: tuple, signs: list[int] | None = None):
        super().__init__(message)
        self.witness = witness
        self.signs = signs


class InconsistentGluingError(TopologyError):
    """Facet gluing of a permutahedral complex fails an involution or
    commutation requirement."""


class CapExceededError(TopologyError):
    """A count passed its cap: ``reached`` is the count, more than
    ``cap``, that the message prints."""

    def __init__(self, message: str, cap: int, reached: int):
        super().__init__(message)
        self.cap = cap
        self.reached = reached


def check_cap(what: str, size: int, unit: str, cap: int) -> None:
    """Refuse ``size`` ``unit`` of ``what`` over ``cap``, a size known in
    closed form before anything of it is built or a count reached as it is
    made."""
    if size > cap:
        raise CapExceededError(
            f"{what} has {size} {unit}, more than the cap {cap}", cap, size)


class NotACoveringError(TopologyError):
    """The candidate projection is not a covering of cell complexes."""


class NotWellDefinedError(TopologyError):
    """A map on identified faces received conflicting values on one class."""


class DegreeNotConstantError(TopologyError):
    """Signed preimage counts of a simplicial map differ between two top
    simplices of the codomain."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness
