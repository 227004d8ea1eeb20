"""Exception types shared across the package."""


class NetexpError(Exception):
    """Base class for all domain errors raised by netexp."""


class NonStochasticRow(NetexpError):
    pass


class NegativeEntry(NetexpError):
    pass


class NonFiniteEntry(NetexpError):
    pass


class ParameterOutOfRange(NetexpError):
    pass


class IndexOutOfRange(NetexpError):
    pass


class AlphabetTooLarge(NetexpError):
    pass


class DimensionMismatch(NetexpError):
    pass


class SearchSpaceTooLarge(NetexpError):
    pass


class MTooLarge(NetexpError):
    pass


class GraphTooLarge(NetexpError):
    pass


class BTooSmall(NetexpError):
    pass


class BoundsViolation(NetexpError):
    pass


class StateSpaceTooLarge(NetexpError):
    pass


class HorizonTooShort(NetexpError):
    pass


class DistributionUnavailable(NetexpError):
    pass


class GraphFileError(NetexpError):
    """Raised when a graph file fails to parse or validate; message names the field."""
