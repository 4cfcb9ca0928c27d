"""TLS 1.3 client state machine with ICA suppression (Fig. 2, client side).

The client attaches its serialized ICA filter to the ClientHello
(extension 0xFE00), processes the server flight, and rebuilds the
verification path from the possibly-suppressed Certificate message plus
its local ICA cache. A path that cannot be completed — the false-positive
case — is reported as ``needs_retry`` so the caller re-runs the handshake
without the extension, exactly the recovery the paper specifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro import obs
from repro.errors import (
    ChainValidationError,
    DecodeError,
    RevocationError,
    UnexpectedMessageError,
)
from repro.pki.certificate import Certificate, decode_certificate
from repro.pki.chain import CertificateChain, complete_path
from repro.pki.signatures import verify_payload
from repro.tls import extensions as ext
from repro.tls.kem import KEMKeyPair, decapsulate
from repro.tls.keyschedule import KeySchedule
from repro.tls.messages import (
    CertificateEntry,
    CertificateMessage,
    CertificateRequest,
    CertificateVerify,
    ClientHello,
    EncryptedExtensions,
    Finished,
    ServerHello,
    decode_handshake,
)
from repro.pki.signatures import sign_payload
from repro.pki.algorithms import get_kem_algorithm

_CV_CONTEXT = b" " * 64 + b"TLS 1.3, server CertificateVerify" + b"\x00"
_CV_CONTEXT_CLIENT = b" " * 64 + b"TLS 1.3, client CertificateVerify" + b"\x00"

IssuerLookup = Callable[[str], Optional[Certificate]]


def _no_cache(name: str) -> Optional[Certificate]:
    """Default issuer lookup: an empty ICA cache."""
    return None


@dataclass
class ClientConfig:
    """Client-side handshake configuration."""

    trust_store: object
    kem_name: str = "x25519"
    hostname: str = "example.com"
    at_time: int = 0
    #: Serialized ICA filter to advertise; None disables the extension.
    ica_filter_payload: Optional[bytes] = None
    #: ICA cache lookup used to complete suppressed paths.
    issuer_lookup: IssuerLookup = _no_cache
    revocation: Optional[object] = None
    seed: int = 0
    # -- mutual TLS (client authentication, §6) ------------------------------
    #: The client's own certificate chain + key (required if the server
    #: sends a CertificateRequest).
    credential: Optional[object] = None
    #: Decides which of the client's own ICAs to omit, given the filter
    #: the server advertised in EncryptedExtensions (same handler protocol
    #: as the server side; see repro.core.suppression.ServerSuppressor).
    own_suppression_handler: Optional[object] = None


@dataclass
class ClientResult:
    """Outcome of processing the server flight."""

    complete: bool
    needs_retry: bool = False
    failure_reason: str = ""
    chain: Optional[CertificateChain] = None
    client_finished: bytes = b""
    suppressed_ica_count: int = 0
    #: mTLS: the client's own ICA suppression accounting.
    own_ica_bytes_sent: int = 0
    own_ica_bytes_suppressed: int = 0
    own_suppressed_ica_count: int = 0


class TLSClient:
    """One handshake attempt (create a fresh instance to retry)."""

    def __init__(self, config: ClientConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed ^ 0x715C)
        self._kem_alg = get_kem_algorithm(config.kem_name)
        self._kem_keypair = KEMKeyPair(self._kem_alg, seed=config.seed ^ 0xEC)
        self._schedule = KeySchedule()
        self._hello_sent = False
        self._done = False

    # -- flight 1 ---------------------------------------------------------------

    def create_client_hello(self) -> bytes:
        if self._hello_sent:
            raise UnexpectedMessageError("ClientHello already sent")
        exts: List[ext.Extension] = [
            ext.server_name_extension(self.config.hostname),
            ext.supported_versions_client(),
            ext.supported_groups_extension(list(ext.KEM_GROUP_IDS.values())),
            ext.signature_algorithms_extension(
                sorted(ext.SIGNATURE_SCHEME_IDS.values())
            ),
            ext.client_key_share_extension(
                ext.KeyShareEntry(
                    ext.KEM_GROUP_IDS[self._kem_alg.name],
                    self._kem_keypair.public_key,
                )
            ),
        ]
        if self.config.ica_filter_payload is not None:
            exts.append(
                ext.Extension(
                    ext.ExtensionType.ICA_SUPPRESSION,
                    self.config.ica_filter_payload,
                )
            )
        hello = ClientHello(
            random=self._rng.getrandbits(256).to_bytes(32, "big"),
            session_id=self._rng.getrandbits(256).to_bytes(32, "big"),
            extensions=tuple(exts),
        )
        wire = hello.encode()
        self._schedule.update_transcript(wire)
        self._hello_sent = True
        return wire

    # -- flight 2 ---------------------------------------------------------------

    def process_server_flight(self, flight: bytes) -> ClientResult:
        """Consume ServerHello..Finished; returns the client Finished or a
        retry/failure indication."""
        if not self._hello_sent or self._done:
            raise UnexpectedMessageError("not expecting a server flight")
        try:
            messages = decode_handshake(flight)
        except DecodeError as exc:
            return ClientResult(False, failure_reason=f"decode: {exc}")
        shapes = {
            5: [ServerHello, EncryptedExtensions, CertificateMessage,
                CertificateVerify, Finished],
            6: [ServerHello, EncryptedExtensions, CertificateRequest,
                CertificateMessage, CertificateVerify, Finished],
        }
        if [type(m) for m in messages] != shapes.get(len(messages)):
            return ClientResult(
                False,
                failure_reason="unexpected server flight "
                f"{[type(m).__name__ for m in messages]}",
            )
        cert_request: Optional[CertificateRequest] = None
        if len(messages) == 6:
            (server_hello, enc_ext, cert_request,
             cert_msg, cert_verify, finished) = messages
        else:
            server_hello, enc_ext, cert_msg, cert_verify, finished = messages

        # Key exchange.
        ks = ext.find_extension(server_hello.extensions, ext.ExtensionType.KEY_SHARE)
        if ks is None:
            return ClientResult(False, failure_reason="server omitted key_share")
        entry = ext.decode_server_key_share(ks)
        if entry.group_id != ext.KEM_GROUP_IDS[self._kem_alg.name]:
            return ClientResult(False, failure_reason="key-share group mismatch")
        shared = decapsulate(self._kem_keypair, entry.key_exchange)
        self._schedule.update_transcript(server_hello.encode())
        self._schedule.inject_shared_secret(shared)
        self._schedule.update_transcript(enc_ext.encode())
        if cert_request is not None:
            if self.config.credential is None:
                return ClientResult(
                    False,
                    failure_reason="server requested a client certificate "
                    "but none is configured",
                )
            self._schedule.update_transcript(cert_request.encode())

        # Certificate path (with suppression completion).
        try:
            transmitted = [
                decode_certificate(e.cert_data) for e in cert_msg.entries
            ]
        except Exception as exc:  # CertificateError subclasses ReproError
            return ClientResult(False, failure_reason=f"bad certificate: {exc}")
        advertised = self.config.ica_filter_payload is not None
        try:
            chain = complete_path(
                transmitted, self.config.issuer_lookup, self.config.trust_store
            )
        except ChainValidationError as exc:
            # If we advertised a filter, an incompletable path is the
            # paper's false-positive signature: retry without suppression.
            # Only *path completion* failures set needs_retry — a chain
            # that reassembles fine but fails validation (expiry, broken
            # signature, untrusted root) is not a suppression artifact.
            obs.inc("tls.client.path_incomplete")
            return ClientResult(
                False, needs_retry=advertised, failure_reason=str(exc)
            )
        try:
            chain.validate(
                self.config.trust_store,
                at_time=self.config.at_time,
                revocation=self.config.revocation,
            )
        except ChainValidationError as exc:
            return ClientResult(False, failure_reason=str(exc))
        except RevocationError as exc:
            return ClientResult(False, failure_reason=str(exc))
        if chain.leaf.subject != self.config.hostname:
            return ClientResult(
                False,
                failure_reason=f"certificate is for {chain.leaf.subject!r}, "
                f"expected {self.config.hostname!r}",
            )
        suppressed = chain.num_icas - max(0, len(transmitted) - 1)

        # CertificateVerify over the transcript so far.
        self._schedule.update_transcript(cert_msg.encode())
        expected_scheme = ext.SIGNATURE_SCHEME_IDS[
            chain.leaf.public_key.algorithm.name
        ]
        if cert_verify.scheme_id != expected_scheme:
            return ClientResult(False, failure_reason="CertificateVerify scheme mismatch")
        signed = _CV_CONTEXT + self._schedule.transcript_hash()
        if not verify_payload(chain.leaf.public_key, signed, cert_verify.signature):
            return ClientResult(False, failure_reason="CertificateVerify invalid")
        self._schedule.update_transcript(cert_verify.encode())

        # Server Finished.
        if not self._schedule.verify_finished("server", finished.verify_data):
            return ClientResult(False, failure_reason="server Finished invalid")
        self._schedule.update_transcript(finished.encode())

        # Client authentication (mTLS), then Finished.
        own_flight = b""
        own_sent = own_suppressed_bytes = own_suppressed_count = 0
        if cert_request is not None:
            own_flight, own_sent, own_suppressed_bytes, own_suppressed_count = (
                self._client_authentication(cert_request, enc_ext)
            )
        client_fin = Finished(self._schedule.finished_mac("client")).encode()
        self._schedule.update_transcript(client_fin)
        self._done = True
        return ClientResult(
            complete=True,
            chain=chain,
            client_finished=own_flight + client_fin,
            suppressed_ica_count=suppressed,
            own_ica_bytes_sent=own_sent,
            own_ica_bytes_suppressed=own_suppressed_bytes,
            own_suppressed_ica_count=own_suppressed_count,
        )

    def _client_authentication(
        self,
        cert_request: CertificateRequest,
        enc_ext: EncryptedExtensions,
    ) -> "tuple[bytes, int, int, int]":
        """Build Certificate + CertificateVerify for our own credential,
        suppressing our ICAs against the filter the server advertised in
        EncryptedExtensions (encrypted on the wire, so no §6 leak)."""
        credential = self.config.credential
        own_chain = credential.chain
        suppressed_fps = set()
        server_filter = ext.find_extension(
            enc_ext.extensions, ext.ExtensionType.ICA_SUPPRESSION
        )
        if server_filter is not None and self.config.own_suppression_handler:
            suppressed_fps = set(
                self.config.own_suppression_handler(server_filter.data, own_chain)
            )
        entries = [CertificateEntry(own_chain.leaf.to_der())]
        sent_bytes = 0
        for ica in own_chain.intermediates:
            if ica.fingerprint() not in suppressed_fps:
                entries.append(CertificateEntry(ica.to_der()))
                sent_bytes += ica.size_bytes()
        cert_msg = CertificateMessage(
            entries=tuple(entries), context=cert_request.context
        )
        cert_bytes = cert_msg.encode()
        self._schedule.update_transcript(cert_bytes)
        signed = _CV_CONTEXT_CLIENT + self._schedule.transcript_hash()
        cv = CertificateVerify(
            scheme_id=ext.SIGNATURE_SCHEME_IDS[credential.keypair.algorithm.name],
            signature=sign_payload(credential.keypair, signed),
        )
        cv_bytes = cv.encode()
        self._schedule.update_transcript(cv_bytes)
        return (
            cert_bytes + cv_bytes,
            sent_bytes,
            own_chain.ica_bytes() - sent_bytes,
            len(suppressed_fps),
        )
