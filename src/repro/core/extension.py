"""IC-suppression extension payload codec.

The ClientHello extension body is simply the AMQ wire image (the AMQ
header already names "the specific filter used (e.g., Quotient, Cuckoo)"
plus its parameters, which is all §4.2 requires the peers to share). This
module is the narrow waist between :mod:`repro.core` and :mod:`repro.tls`:
the TLS layer carries opaque bytes; both suppressor classes go through
these helpers.
"""

from __future__ import annotations

from repro.amq import AMQFilter, deserialize_filter, serialize_filter

#: TLS extension framing around the payload: 2-byte type + 2-byte length.
EXTENSION_FRAMING_BYTES = 4


def build_extension_payload(filt: AMQFilter) -> bytes:
    """Serialize ``filt`` into the extension body."""
    return serialize_filter(filt)


def parse_extension_payload(payload: bytes) -> AMQFilter:
    """Reconstruct the advertised filter; raises FilterSerializationError
    on any malformed input (the server then ignores the extension, which
    is the safe failure mode — a normal unsuppressed handshake)."""
    return deserialize_filter(payload)
