"""Exception hierarchy for the repro package.

All exceptions raised by this package derive from :class:`ReproError`, so
callers can catch one base class. Subsystem bases (``FilterError``,
``PKIError``, ``TLSError``, ``SimulationError``) group the more specific
conditions raised by each subpackage.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """A component was configured with invalid or inconsistent parameters."""


# --------------------------------------------------------------------------
# AMQ filters
# --------------------------------------------------------------------------


class FilterError(ReproError):
    """Base class for approximate-membership-query filter errors."""


class FilterFullError(FilterError):
    """An insertion failed because the filter cannot accept more items.

    For cuckoo-style filters this corresponds to exceeding the maximum
    number of evictions; for quotient/bloom filters, to exceeding the
    configured capacity.

    When raised by ``insert_batch``, :attr:`inserted_count` records how
    many items of the batch were fully inserted before the failure (the
    batch prefix-insert contract; see ``AMQFilter.insert_batch``).
    """

    def __init__(self, message: str = "", inserted_count: "int | None" = None):
        super().__init__(message)
        self.inserted_count = inserted_count


class FilterSerializationError(FilterError):
    """A filter wire image could not be parsed or round-tripped."""


class DeletionUnsupportedError(FilterError):
    """Deletion was requested on a filter type that cannot delete."""


# --------------------------------------------------------------------------
# PKI
# --------------------------------------------------------------------------


class PKIError(ReproError):
    """Base class for PKI substrate errors."""


class ASN1Error(PKIError):
    """Malformed DER data or an unencodable value."""


class CertificateError(PKIError):
    """A certificate is malformed, expired or otherwise unusable."""


class ChainValidationError(PKIError):
    """A certificate chain failed path validation."""


class RevocationError(PKIError):
    """A certificate in the path is revoked."""


class UnknownAlgorithmError(PKIError, KeyError):
    """An algorithm name is not present in the catalogue."""


# --------------------------------------------------------------------------
# TLS
# --------------------------------------------------------------------------


class TLSError(ReproError):
    """Base class for TLS substrate errors."""


class DecodeError(TLSError):
    """A TLS message or extension could not be decoded."""


class HandshakeError(TLSError):
    """The handshake state machine hit a fatal condition."""


class UnexpectedMessageError(HandshakeError):
    """A handshake message arrived in the wrong state."""


# --------------------------------------------------------------------------
# Simulation
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for network/workload simulator errors."""
