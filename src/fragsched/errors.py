"""Exception hierarchy shared across the package."""


class FragschedError(Exception):
    """Base class for all errors raised by this package."""


class EmptyOccupancy(FragschedError):
    pass


class DuplicateReplicaOnServer(FragschedError):
    pass


class IdOutOfRange(FragschedError):
    pass


class NonUniformDesign(FragschedError):
    pass


class NotPrime(FragschedError):
    pass


class InvalidParams(FragschedError):
    pass


class InvalidRate(InvalidParams, IdOutOfRange):
    """A download rate that is not positive and finite. It is an
    ``InvalidParams``, as every bad parameter is, and an ``IdOutOfRange``,
    which scheme construction raised for it before."""


class CapacityMismatch(FragschedError):
    pass


class TooManyFragments(FragschedError):
    pass


class EmptyProfile(FragschedError):
    pass


class ParseError(FragschedError):
    pass


class SchemaVersionUnsupported(FragschedError):
    pass


class ValidationFailed(FragschedError):
    pass
