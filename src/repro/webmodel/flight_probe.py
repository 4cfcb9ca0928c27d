"""Flight-size probe: exact ClientHello and server-flight byte counts.

Experiments that model latency from message sizes (Fig. 1, Fig. 5's
TTFB panels, QUIC, compression, the ablations and the estimator model)
need the exact on-wire size of a handshake whose chain carries a given
number of intermediates under a given signature algorithm and KEM. This
module measures it by running one real handshake over a purpose-built
micro-PKI with exactly that chain shape.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.errors import SimulationError
from repro.pki.algorithms import get_signature_algorithm
from repro.pki.keys import KeyPair
from repro.pki.ocsp import OCSPStaple
from repro.pki.sct import SignedCertificateTimestamp
from repro.runtime import artifacts
from repro.tls.client import ClientConfig
from repro.tls.server import ServerConfig
from repro.tls.session import run_handshake


@functools.lru_cache(maxsize=None)
def micro_credential(algorithm_name: str, n_icas: int):
    """A credential whose chain has exactly ``n_icas`` intermediates,
    used to measure exact flight sizes for any algorithm."""
    from repro.pki.authority import CertificateAuthority, ServerCredential
    from repro.pki.chain import CertificateChain
    from repro.pki.store import TrustStore

    root = CertificateAuthority.create_root(
        "Flight Probe Root", algorithm_name, seed=0xF11
    )
    issuer = root
    authorities = []
    for i in range(n_icas):
        issuer = issuer.create_subordinate(
            f"Flight Probe ICA {i}", seed=0xF20 + i
        )
        authorities.append(issuer)
    alg = get_signature_algorithm(algorithm_name)
    keypair = KeyPair(alg, 0xF99)
    leaf = issuer.issue_leaf_with_key("flight-probe.example", keypair)
    chain = CertificateChain(
        leaf=leaf,
        intermediates=tuple(ca.certificate for ca in reversed(authorities)),
        root=root.certificate,
    )
    return ServerCredential(chain=chain, keypair=keypair), TrustStore(
        [root.certificate]
    )


def flight_sizes(
    algorithm_name: str, kem_name: str, n_icas: int, staples: bool
) -> Tuple[int, int]:
    """(ClientHello bytes, server-flight bytes) measured by running one
    real handshake with the given chain shape — exact by construction.

    Memoized in the ``flight_sizes`` artifact cache, so each shape is
    probed once per process.
    """
    key = (algorithm_name, kem_name, n_icas, staples)
    cached = artifacts.FLIGHT_SIZES.get(key)
    if cached is not None:
        return cached
    trace = run_handshake(*probe_configs(algorithm_name, kem_name, n_icas, staples))
    if not trace.succeeded:
        raise SimulationError(
            f"flight probe failed: {trace.final_attempt.failure_reason}"
        )
    attempt = trace.attempts[0]
    result = attempt.client_hello_bytes, attempt.server_flight_bytes
    artifacts.FLIGHT_SIZES.put(key, result)
    return result


def probe_configs(
    algorithm_name: str, kem_name: str, n_icas: int, staples: bool
) -> Tuple[ClientConfig, ServerConfig]:
    """Client and server configs of the probe handshake: the
    :func:`micro_credential` chain, plus an OCSP staple and two SCTs when
    ``staples`` is set."""
    credential, store = micro_credential(algorithm_name, n_icas)
    responder = KeyPair(get_signature_algorithm(algorithm_name), 0xE5D)
    ocsp = None
    scts: List[SignedCertificateTimestamp] = []
    if staples:
        ocsp = OCSPStaple.create(credential.chain.leaf, responder, produced_at=1)
        scts = [
            SignedCertificateTimestamp.create(
                credential.chain.leaf, responder, bytes([i]) * 32, 7
            )
            for i in (1, 2)
        ]
    server = ServerConfig(credential=credential, ocsp_staple=ocsp, scts=scts)
    client = ClientConfig(
        trust_store=store,
        kem_name=kem_name,
        hostname="flight-probe.example",
        at_time=10,
    )
    return client, server
