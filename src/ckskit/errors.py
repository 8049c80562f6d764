"""Exception types shared across the package."""


class CksKitError(Exception):
    """Base class for all package errors."""


class EmptyGraph(CksKitError):
    pass


class DisconnectedGraph(CksKitError):
    pass


class BondDeletion(CksKitError):
    """Deleting this edge set would disconnect the graph."""


class NotACotree(CksKitError):
    pass


class NotASpanningTree(CksKitError):
    pass


class FaceNotInComplex(CksKitError):
    pass


class MismatchedGraph(CksKitError):
    """A derived structure was paired with a graph it was not built from."""


class IncoherentCotree(CksKitError):
    """A cotree table breaks C(S ∪ e) = C(S) less one edge."""


class SupportContainsBond(CksKitError):
    pass


class EdgeIsBondOrLoop(CksKitError):
    pass


class NotAComplex(CksKitError):
    """Differentials do not square to zero: d_{degree+1} ∘ d_degree != 0."""

    def __init__(self, degree):
        super().__init__(f"d^2 != 0 at degree {degree}")
        self.degree = degree


class OutsideBasis(CksKitError):
    """A map sent the basis element `source` to `label`, which is not in
    its target basis."""

    def __init__(self, source, label):
        super().__init__(f"the image of {source!r} has {label!r} outside "
                         "the target basis")
        self.source = source


class ParseError(CksKitError):
    pass


class ResourceGuard(CksKitError):
    """Computation would exceed the configured size ceiling."""
