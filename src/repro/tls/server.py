"""TLS 1.3 server state machine with ICA suppression (Fig. 2, server side).

On receiving a ClientHello carrying the IC-filter extension, the server
hands the payload to its suppression handler (see
:class:`repro.core.suppression.ServerSuppressor`), which deserializes the
filter and queries each ICA on the verification path. ICAs reported
present are omitted from the Certificate message; everything else about
the handshake is unchanged — including, crucially for the paper, the case
where the filter yields a false positive and the server innocently omits a
certificate the client does not have.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

from repro import obs
from repro.errors import (
    ChainValidationError,
    DecodeError,
    RevocationError,
    UnexpectedMessageError,
)
from repro.pki.authority import ServerCredential
from repro.pki.certificate import Certificate, decode_certificate
from repro.pki.chain import CertificateChain, complete_path
from repro.pki.ocsp import OCSPStaple
from repro.pki.sct import SignedCertificateTimestamp
from repro.pki.signatures import sign_payload
from repro.tls import extensions as ext
from repro.tls.kem import encapsulate
from repro.tls.keyschedule import KeySchedule
from repro.tls.messages import (
    ENTRY_EXT_OCSP,
    ENTRY_EXT_SCT,
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
from repro.pki.signatures import verify_payload

_CV_CONTEXT = b" " * 64 + b"TLS 1.3, server CertificateVerify" + b"\x00"
_CV_CONTEXT_CLIENT = b" " * 64 + b"TLS 1.3, client CertificateVerify" + b"\x00"


def _no_client_cache(name):
    """Default server-side issuer lookup: an empty ICA cache."""
    return None

#: Given the raw filter payload and the server's chain, return the set of
#: ICA fingerprints to omit from the Certificate message.
SuppressionHandler = Callable[[bytes, CertificateChain], Set[bytes]]


@dataclass
class ServerConfig:
    """Server-side handshake configuration."""

    credential: ServerCredential
    #: Suppression handler; None means the extension is ignored.
    suppression_handler: Optional[SuppressionHandler] = None
    ocsp_staple: Optional[OCSPStaple] = None
    scts: List[SignedCertificateTimestamp] = field(default_factory=list)
    seed: int = 0
    # -- mutual TLS (client authentication, §6) ------------------------------
    #: Send a CertificateRequest and verify the client's chain.
    request_client_certificate: bool = False
    #: Trust anchors for client chains (required when requesting them).
    client_trust_store: Optional[object] = None
    #: Server-side ICA cache used to complete suppressed client chains.
    client_issuer_lookup: object = _no_client_cache
    #: The server's own known-ICA filter, advertised to the client inside
    #: EncryptedExtensions — encrypted on the wire, so the privacy leak of
    #: the cleartext ClientHello extension does not apply (§6).
    ica_filter_payload: Optional[bytes] = None
    client_revocation: Optional[object] = None
    at_time: int = 0


@dataclass
class ClientAuthVerdict:
    """Outcome of processing the client's final flight."""

    ok: bool
    needs_retry: bool = False
    reason: str = ""
    client_chain: Optional[CertificateChain] = None
    suppressed_ica_count: int = 0


@dataclass
class ServerFlightResult:
    flight: bytes
    suppressed_fingerprints: Set[bytes]
    certificate_payload_bytes: int
    ica_bytes_sent: int
    ica_bytes_suppressed: int
    #: Chain ICAs omitted from the Certificate message — the count the
    #: byte figures above derive from, reported together so per-attempt
    #: accounting can never mix a zeroed count with nonzero bytes.
    ica_suppressed_count: int = 0


class TLSServer:
    """One handshake attempt on the server side."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed ^ 0x5E17)
        self._schedule = KeySchedule()
        self._sent_flight = False
        self._complete = False

    # -- flight 2 -----------------------------------------------------------------

    def process_client_hello(self, hello_bytes: bytes) -> ServerFlightResult:
        if self._sent_flight:
            raise UnexpectedMessageError("server flight already sent")
        messages = decode_handshake(hello_bytes)
        if len(messages) != 1 or not isinstance(messages[0], ClientHello):
            raise DecodeError("expected exactly one ClientHello")
        hello = messages[0]
        self._schedule.update_transcript(hello_bytes)

        # Key exchange: encapsulate against the client's share.
        ks = ext.find_extension(hello.extensions, ext.ExtensionType.KEY_SHARE)
        if ks is None:
            raise DecodeError("ClientHello missing key_share")
        entry = ext.decode_client_key_share(ks)
        kem_name = ext.kem_name_for_group(entry.group_id)
        from repro.pki.algorithms import get_kem_algorithm

        kem_alg = get_kem_algorithm(kem_name)
        ciphertext, shared = encapsulate(
            kem_alg, entry.key_exchange, entropy_seed=self.config.seed ^ 0xE2CA
        )

        # ICA suppression decision.
        chain = self.config.credential.chain
        suppressed: Set[bytes] = set()
        filter_ext = ext.find_extension(
            hello.extensions, ext.ExtensionType.ICA_SUPPRESSION
        )
        if filter_ext is not None and self.config.suppression_handler is not None:
            suppressed = set(
                self.config.suppression_handler(filter_ext.data, chain)
            )

        server_hello = ServerHello(
            random=self._rng.getrandbits(256).to_bytes(32, "big"),
            session_id=hello.session_id,
            extensions=(
                ext.supported_versions_server(),
                ext.server_key_share_extension(
                    ext.KeyShareEntry(entry.group_id, ciphertext)
                ),
            ),
        )
        sh_bytes = server_hello.encode()
        self._schedule.update_transcript(sh_bytes)
        self._schedule.inject_shared_secret(shared)

        ee_exts = []
        if self.config.ica_filter_payload is not None:
            ee_exts.append(
                ext.Extension(
                    ext.ExtensionType.ICA_SUPPRESSION,
                    self.config.ica_filter_payload,
                )
            )
        ee_bytes = EncryptedExtensions(extensions=tuple(ee_exts)).encode()
        self._schedule.update_transcript(ee_bytes)

        cr_bytes = b""
        if self.config.request_client_certificate:
            cr_bytes = CertificateRequest(
                context=b"", extensions=()
            ).encode()
            self._schedule.update_transcript(cr_bytes)

        cert_msg = self._certificate_message(chain, suppressed)
        cert_bytes = cert_msg.encode()
        self._schedule.update_transcript(cert_bytes)

        signed = _CV_CONTEXT + self._schedule.transcript_hash()
        cv = CertificateVerify(
            scheme_id=ext.SIGNATURE_SCHEME_IDS[
                self.config.credential.keypair.algorithm.name
            ],
            signature=sign_payload(self.config.credential.keypair, signed),
        )
        cv_bytes = cv.encode()
        self._schedule.update_transcript(cv_bytes)

        fin_bytes = Finished(self._schedule.finished_mac("server")).encode()
        self._schedule.update_transcript(fin_bytes)
        self._sent_flight = True

        sent_ica = 0
        suppressed_count = 0
        for ica in chain.intermediates:
            if ica.fingerprint() in suppressed:
                suppressed_count += 1
            else:
                sent_ica += ica.size_bytes()
        reg = obs.registry()
        if reg is not None:
            reg.inc("tls.server.flights")
            reg.inc("tls.server.icas_suppressed", suppressed_count)
            reg.inc(
                "tls.server.ica_bytes_suppressed", chain.ica_bytes() - sent_ica
            )
        return ServerFlightResult(
            flight=sh_bytes + ee_bytes + cr_bytes + cert_bytes + cv_bytes + fin_bytes,
            suppressed_fingerprints=suppressed,
            certificate_payload_bytes=cert_msg.certificate_payload_bytes(),
            ica_bytes_sent=sent_ica,
            ica_bytes_suppressed=chain.ica_bytes() - sent_ica,
            ica_suppressed_count=suppressed_count,
        )

    def _certificate_message(
        self, chain: CertificateChain, suppressed: Set[bytes]
    ) -> CertificateMessage:
        entries = []
        leaf_exts = []
        if self.config.ocsp_staple is not None:
            leaf_exts.append(
                ext.Extension(ENTRY_EXT_OCSP, self.config.ocsp_staple.to_der())
            )
        for sct in self.config.scts:
            leaf_exts.append(ext.Extension(ENTRY_EXT_SCT, sct.to_bytes()))
        entries.append(CertificateEntry(chain.leaf.to_der(), tuple(leaf_exts)))
        for ica in chain.intermediates:
            if ica.fingerprint() not in suppressed:
                entries.append(CertificateEntry(ica.to_der()))
        return CertificateMessage(entries=tuple(entries))

    # -- flight 3 -----------------------------------------------------------------

    def process_client_finished(self, fin_bytes: bytes) -> bool:
        """Back-compat wrapper: server-auth-only flight (just Finished)."""
        return self.process_client_flight(fin_bytes).ok

    def process_client_flight(self, flight_bytes: bytes) -> "ClientAuthVerdict":
        """Consume the client's final flight: a bare Finished, or — under
        mutual TLS — Certificate + CertificateVerify + Finished, with the
        client's ICAs possibly suppressed against the filter this server
        advertised in EncryptedExtensions."""
        if not self._sent_flight or self._complete:
            raise UnexpectedMessageError("not expecting a client flight")
        messages = decode_handshake(flight_bytes)
        verdict = ClientAuthVerdict(ok=False)
        if self.config.request_client_certificate:
            expected = [CertificateMessage, CertificateVerify, Finished]
            if [type(m) for m in messages] != expected:
                return ClientAuthVerdict(
                    ok=False,
                    reason="expected client Certificate, CertificateVerify, "
                    f"Finished; got {[type(m).__name__ for m in messages]}",
                )
            cert_msg, cert_verify, finished = messages
            verdict = self._verify_client_certificate(cert_msg, cert_verify)
            if not verdict.ok:
                return verdict
        else:
            if len(messages) != 1 or not isinstance(messages[0], Finished):
                return ClientAuthVerdict(
                    ok=False, reason="expected exactly one Finished"
                )
            finished = messages[0]
        if not self._schedule.verify_finished("client", finished.verify_data):
            return ClientAuthVerdict(ok=False, reason="client Finished invalid")
        self._schedule.update_transcript(finished.encode())
        self._complete = True
        return verdict if verdict.ok else ClientAuthVerdict(ok=True)

    def _verify_client_certificate(
        self, cert_msg: CertificateMessage, cert_verify: CertificateVerify
    ) -> "ClientAuthVerdict":
        store = self.config.client_trust_store
        if store is None:
            return ClientAuthVerdict(
                ok=False, reason="client-auth: no client trust store configured"
            )
        try:
            transmitted = [
                decode_certificate(e.cert_data) for e in cert_msg.entries
            ]
        except Exception as exc:
            return ClientAuthVerdict(
                ok=False, reason=f"client-auth: bad certificate: {exc}"
            )
        advertised = self.config.ica_filter_payload is not None
        try:
            chain = complete_path(
                transmitted, self.config.client_issuer_lookup, store
            )
        except ChainValidationError as exc:
            # Only a path that cannot be *reassembled* is the client-side
            # over-suppression signature; validation failures on a complete
            # chain never warrant a retry.
            obs.inc("tls.server.client_path_incomplete")
            return ClientAuthVerdict(
                ok=False,
                needs_retry=advertised,
                reason=f"client-auth: {exc}",
            )
        try:
            chain.validate(
                store,
                at_time=self.config.at_time,
                revocation=self.config.client_revocation,
            )
        except ChainValidationError as exc:
            return ClientAuthVerdict(ok=False, reason=f"client-auth: {exc}")
        except RevocationError as exc:
            return ClientAuthVerdict(ok=False, reason=f"client-auth: {exc}")
        self._schedule.update_transcript(cert_msg.encode())
        expected_scheme = ext.SIGNATURE_SCHEME_IDS[
            chain.leaf.public_key.algorithm.name
        ]
        if cert_verify.scheme_id != expected_scheme:
            return ClientAuthVerdict(
                ok=False, reason="client-auth: CertificateVerify scheme mismatch"
            )
        signed = _CV_CONTEXT_CLIENT + self._schedule.transcript_hash()
        if not verify_payload(
            chain.leaf.public_key, signed, cert_verify.signature
        ):
            return ClientAuthVerdict(
                ok=False, reason="client-auth: CertificateVerify invalid"
            )
        self._schedule.update_transcript(cert_verify.encode())
        suppressed = chain.num_icas - max(0, len(transmitted) - 1)
        return ClientAuthVerdict(
            ok=True,
            client_chain=chain,
            suppressed_ica_count=suppressed,
        )
