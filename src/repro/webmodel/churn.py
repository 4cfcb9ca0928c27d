"""PKI-lifecycle churn model: the shared world and its metric types.

The paper's §4.2 dynamic-updates assumption ("the filter supports dynamic
updates") is trivially true for a static ICA population; the Web PKI is
not static. :class:`ChurnWorld` evolves a synthetic CA ecosystem step by
step — new ICA issuance, expiry, CRL-driven revocation, cross-signing
(distinct certificates for one subject/key), and site rotation — and the
churn engines attach a client population to it (which also takes the
periodic preload-list refresh, the CCADB drift model): the columnar cohort
engine in :mod:`repro.webmodel.churn_columnar` and its executable scalar
spec in :mod:`repro.webmodel.churn_reference`. Both drive the *identical*
lifecycle event stream (same ``churn.events`` RNG draws, same
issuance/cross-sign/revoke/rotate ordering), and both read it through a
:class:`WorldTape`: the world runs once and records, step by step, the
frame of everything a client reads from it, so several client models of
one world replay one recording instead of each advancing its own copy.

The load-bearing knob is **advertised-payload staleness**: a client's
*filter* tracks its cache exactly, but the serialized payload it attaches
to ClientHellos is only re-captured every ``payload_refresh_every`` steps,
the way a real client amortizes filter serialization across connections.
A revoked ICA therefore lingers in the advertised payload after the cache
dropped it; a server still serving that ICA (rotation lags revocation by
``rotation_lag_steps``) suppresses it, the client cannot complete the
path, and the handshake pays the paper's false-positive retry. The
engines measure how suppression rate, FP-retry rate and bytes-on-wire
degrade as that staleness grows, as a :class:`ChurnResult` of per-step
:class:`StepMetrics`.

Everything is a pure function of :class:`ChurnConfig`: all randomness is
drawn from :func:`~repro.runtime.parallel.derive_seed` streams, so one
config yields one event stream and one metrics series, bit-for-bit, in
any process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.pki.authority import (
    CA_VALIDITY,
    CertificateAuthority,
    ServerCredential,
)
from repro.pki.certificate import Certificate
from repro.pki.chain import CertificateChain
from repro.pki.keys import KeyPair
from repro.pki.revocation import RevocationList
from repro.pki.store import TrustStore
from repro.runtime.parallel import derive_seed


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of one churn run (defaults: a ~3-week, one-day-step
    ecosystem small enough for CI but busy enough that every lifecycle
    event class fires)."""

    steps: int = 24
    step_seconds: int = 86_400
    num_roots: int = 2
    initial_icas: int = 10
    num_sites: int = 12
    #: Expected new ICAs per step (fractional part drawn Bernoulli).
    issuance_rate: float = 0.4
    #: Expected revocations per step.
    revocation_rate: float = 0.5
    #: Expected cross-sign events per step.
    cross_sign_rate: float = 0.25
    #: ICA validity in steps; initial ICAs get staggered expiries so the
    #: sweep fires repeatedly instead of once.
    ica_validity_steps: int = 16
    #: Steps a site keeps serving a chain whose ICA was just revoked
    #: (certificate rotation lags CRL publication in the wild).
    rotation_lag_steps: int = 2
    #: Steps between preload-list refreshes (clients bulk-learn the
    #: current live population — the CCADB drift model).
    preload_refresh_every: int = 4
    #: Steps between a client re-capturing its *advertised* payload from
    #: the live filter. 1 = always fresh; larger = staler.
    payload_refresh_every: int = 1
    filter_kind: str = "cuckoo"
    fpp: float = 1e-3
    load_factor: float = 0.9
    kem_name: str = "x25519"
    algorithm: str = "ecdsa-p256"
    seed: int = 0
    #: How refreshed payloads reach clients: ``"full"`` re-ships the
    #: whole framed filter image on every refresh; ``"delta"`` ships
    #: versioned ``repro.delta/v1`` patches (:mod:`repro.amq.delta`)
    #: against the client's last-applied version, metered in
    #: :attr:`StepMetrics.distribution_bytes`. The advertised images
    #: differ too: full re-plans capacity from each capture's item count
    #: under the base seed, while delta folds the version into the hash
    #: seed and grows capacity only when the items overflow the table, so
    #: payload sizes and false-positive draws (hence ``wire_bytes``) can
    #: differ between the two.
    distribution: str = "full"


@dataclass(frozen=True)
class StepMetrics:
    """Everything one step did to the ecosystem and what it cost."""

    step: int
    icas_issued: int
    icas_cross_signed: int
    icas_revoked: int
    icas_expired_swept: int
    preload_added: int
    payload_refreshes: int
    site_rotations: int
    handshakes: int
    completed: int
    fp_retries: int
    fallbacks: int
    failures: int
    #: Handshakes whose advertised payload no longer matched the cache.
    stale_advertised: int
    icas_encountered: int
    icas_suppressed: int
    wire_bytes: int
    #: Bytes the filter-update channel shipped this step (framed full
    #: images or ``repro.delta/v1`` messages times refreshed clients);
    #: defaults to 0 so pre-delta constructions stay valid.
    distribution_bytes: int = 0


@dataclass
class ChurnResult:
    """One churn run: the per-step series plus the recorded event stream
    (the determinism contract: same config → same events, same series)."""

    config: ChurnConfig
    steps: List[StepMetrics]
    events: List[Tuple[int, str, str]]

    @property
    def handshakes(self) -> int:
        return sum(s.handshakes for s in self.steps)

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.steps)

    @property
    def fp_retries(self) -> int:
        return sum(s.fp_retries for s in self.steps)

    @property
    def fallbacks(self) -> int:
        return sum(s.fallbacks for s in self.steps)

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.steps)

    @property
    def fp_retry_rate(self) -> float:
        total = self.handshakes
        return (self.fp_retries + self.fallbacks) / total if total else 0.0

    @property
    def suppression_rate(self) -> float:
        encountered = sum(s.icas_encountered for s in self.steps)
        if not encountered:
            return 0.0
        return sum(s.icas_suppressed for s in self.steps) / encountered

    @property
    def stale_advertised_rate(self) -> float:
        total = self.handshakes
        return sum(s.stale_advertised for s in self.steps) / total if total else 0.0

    @property
    def total_wire_bytes(self) -> int:
        return sum(s.wire_bytes for s in self.steps)

    @property
    def total_distribution_bytes(self) -> int:
        """Cumulative bytes the filter-update channel shipped — the
        headline delta-vs-full comparison metric."""
        return sum(s.distribution_bytes for s in self.steps)

    def fp_retry_curve(self) -> List[float]:
        """Per-step FP-retry rate — the staleness-degradation series the
        churn experiment plots."""
        return [
            (s.fp_retries + s.fallbacks) / s.handshakes if s.handshakes else 0.0
            for s in self.steps
        ]


@dataclass
class _ICARecord:
    """One intermediate CA and every certificate ever carrying its
    subject/key: the original plus later cross-signs."""

    authority: CertificateAuthority
    #: (ica certificate, anchoring root certificate), oldest first.
    variants: List[Tuple[Certificate, Certificate]]
    expire_step: int

    def live_variant(
        self, crl: RevocationList, at_time: int
    ) -> Optional[Tuple[Certificate, Certificate]]:
        """Newest variant that is unrevoked and valid — what a rotating
        site would deploy."""
        for cert, root in reversed(self.variants):
            if not crl.is_revoked(cert) and cert.valid_at(at_time):
                return cert, root
        return None


@dataclass
class _Site:
    hostname: str
    record_index: int
    ica_cert: Certificate
    root_cert: Certificate
    credential: ServerCredential
    #: Step at which this site swaps off its current (revoked) chain.
    rotate_at: Optional[int] = None


class ChurnWorld:
    """The CA-ecosystem half of the simulation: roots, ICA records, CRL,
    serving sites, and the per-step mutation phase (issue → cross-sign →
    revoke → rotate) driven by the ``churn.events`` RNG stream.

    A world is client-free on purpose: clients read it only through a
    :class:`WorldTape` recorded from it, and because every draw comes
    from :func:`~repro.runtime.parallel.derive_seed` streams keyed only by
    (config.seed, step), two worlds built from one config replay the
    identical event stream whatever consumes them.
    """

    def __init__(self, config: ChurnConfig = ChurnConfig()) -> None:
        if config.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {config.steps}")
        if config.num_roots < 1:
            raise ConfigurationError(
                f"num_roots must be >= 1, got {config.num_roots}"
            )
        if config.initial_icas < 2:
            raise ConfigurationError(
                f"initial_icas must be >= 2, got {config.initial_icas}"
            )
        self.config = config
        self.events: List[Tuple[int, str, str]] = []
        self._issued = 0
        horizon = (config.steps + 2) * config.step_seconds
        self.roots = [
            CertificateAuthority.create_root(
                f"Churn Root R{i}",
                config.algorithm,
                seed=derive_seed("churn.root", config.seed, i),
                not_before=0,
                not_after=max(CA_VALIDITY, horizon),
            )
            for i in range(config.num_roots)
        ]
        self.trust_store = TrustStore([r.certificate for r in self.roots])
        self.crl = RevocationList()
        #: Every certificate :attr:`crl` holds, in revocation order.
        self.revocations: List[Certificate] = []
        self.records: List[_ICARecord] = []
        for i in range(config.initial_icas):
            # Staggered expiries: the sweep fires across the horizon, not
            # in one burst at step ``ica_validity_steps``.
            stagger = i % max(1, config.ica_validity_steps // 2)
            self._issue_ica(step=0, expire_step=config.ica_validity_steps + stagger)
        self.sites: List[_Site] = []
        rng = random.Random(derive_seed("churn.sites", config.seed))
        for i in range(config.num_sites):
            self.sites.append(self._make_site(f"site{i}.churn.example", 0, rng))

    # -- ecosystem mutation ------------------------------------------------------

    def _issue_ica(self, step: int, expire_step: Optional[int] = None) -> _ICARecord:
        cfg = self.config
        i = self._issued
        self._issued += 1
        root = self.roots[i % cfg.num_roots]
        expire = expire_step if expire_step is not None else step + cfg.ica_validity_steps
        authority = root.create_subordinate(
            f"Churn ICA I{i}",
            seed=derive_seed("churn.ica", cfg.seed, i),
            not_before=step * cfg.step_seconds,
            not_after=expire * cfg.step_seconds,
        )
        record = _ICARecord(
            authority=authority,
            variants=[(authority.certificate, root.certificate)],
            expire_step=expire,
        )
        self.records.append(record)
        self.events.append((step, "issue", authority.name))
        return record

    def _cross_sign(self, step: int, rng: random.Random) -> bool:
        cfg = self.config
        if cfg.num_roots < 2:
            return False
        at_time = step * cfg.step_seconds
        candidates = [
            r
            for r in self.records
            if r.expire_step > step + 1
            and r.live_variant(self.crl, at_time) is not None
        ]
        if not candidates:
            return False
        record = candidates[rng.randrange(len(candidates))]
        current_root = record.variants[-1][1]
        other_roots = [
            r for r in self.roots if r.certificate.subject != current_root.subject
        ]
        signer = other_roots[rng.randrange(len(other_roots))]
        cert = signer.cross_sign(
            record.authority,
            not_before=at_time,
            not_after=record.expire_step * cfg.step_seconds,
        )
        record.variants.append((cert, signer.certificate))
        self.events.append(
            (step, "cross-sign", f"{record.authority.name} by {signer.name}")
        )
        return True

    def _revoke(self, step: int, rng: random.Random) -> bool:
        at_time = step * self.config.step_seconds
        servable = [
            i
            for i, r in enumerate(self.records)
            if r.expire_step > step + 1
            and r.live_variant(self.crl, at_time) is not None
        ]
        if len(servable) <= 2:  # keep the ecosystem servable
            return False
        index = servable[rng.randrange(len(servable))]
        record = self.records[index]
        cert, _ = record.live_variant(self.crl, at_time)
        self.crl.revoke(cert, at_time=at_time)
        self.revocations.append(cert)
        self.events.append((step, "revoke", cert.subject))
        # Sites serving the revoked certificate rotate only after the lag.
        for site in self.sites:
            if (
                site.ica_cert.fingerprint() == cert.fingerprint()
                and site.rotate_at is None
            ):
                site.rotate_at = step + self.config.rotation_lag_steps
        return True

    def _make_site(self, hostname: str, step: int, rng: random.Random) -> _Site:
        cfg = self.config
        at_time = step * cfg.step_seconds
        # Cheap expiry test first; each record's live variant is read once.
        servable = [
            (i, variant)
            for i, r in enumerate(self.records)
            if r.expire_step > step + 1
            and (variant := r.live_variant(self.crl, at_time)) is not None
        ]
        if not servable:
            # Renewal issuance: when revocations plus expiries have drained
            # the servable pool, the CA ecosystem mints a replacement ICA
            # rather than leaving the site unservable.
            record = self._issue_ica(step)
            servable = [(len(self.records) - 1, record.variants[-1])]
        index, variant = servable[rng.randrange(len(servable))]
        ica_cert, root_cert = variant
        record = self.records[index]
        keypair = KeyPair(
            record.authority.certificate.public_key.algorithm,
            derive_seed("churn.leaf", cfg.seed, hostname, step),
        )
        leaf = record.authority.issue_leaf_with_key(
            hostname, keypair, not_before=at_time
        )
        chain = CertificateChain(
            leaf=leaf, intermediates=(ica_cert,), root=root_cert
        )
        return _Site(
            hostname=hostname,
            record_index=index,
            ica_cert=ica_cert,
            root_cert=root_cert,
            credential=ServerCredential(chain=chain, keypair=keypair),
        )

    def _rotate_due_sites(self, step: int, rng: random.Random) -> int:
        rotations = 0
        at_time = step * self.config.step_seconds
        for i, site in enumerate(self.sites):
            record = self.records[site.record_index]
            lag_due = site.rotate_at is not None and step >= site.rotate_at
            # Renew-before-expiry: an expired ICA in the chain would fail
            # even the plain retry, so sites rotate one step ahead.
            expiring = record.expire_step <= step + 1
            invalid = not site.ica_cert.valid_at(at_time)
            if lag_due or expiring or invalid:
                self.sites[i] = self._make_site(site.hostname, step, rng)
                rotations += 1
                self.events.append((step, "rotate", site.hostname))
        return rotations

    def _draw_count(self, rate: float, rng: random.Random) -> int:
        count = int(rate)
        if rng.random() < rate - count:
            count += 1
        return count

    # -- queries -----------------------------------------------------------------

    def initial_certificates(self) -> List[Certificate]:
        """Every ICA variant currently on record (what a fresh client's
        preload cache starts from)."""
        return [cert for record in self.records for cert, _ in record.variants]

    def live_certificates(self, step: int) -> List[Certificate]:
        at_time = step * self.config.step_seconds
        live = []
        for record in self.records:
            for cert, _ in record.variants:
                if not self.crl.is_revoked(cert) and cert.valid_at(at_time):
                    live.append(cert)
        return live

    # -- per-step mutation --------------------------------------------------------

    def advance(self, step: int) -> Tuple[int, int, int, int]:
        """Run one step's lifecycle phase: issuance, cross-signing,
        revocation, then due site rotations — all drawn from the
        ``churn.events`` stream in this exact order (the determinism
        contract every engine on top of this world relies on).

        Returns ``(issued, cross_signed, revoked, rotations)``.
        """
        cfg = self.config
        rng = random.Random(derive_seed("churn.events", cfg.seed, step))
        issued = sum(
            1
            for _ in range(self._draw_count(cfg.issuance_rate, rng))
            if self._issue_ica(step)
        )
        cross_signed = sum(
            1
            for _ in range(self._draw_count(cfg.cross_sign_rate, rng))
            if self._cross_sign(step, rng)
        )
        revoked = sum(
            1
            for _ in range(self._draw_count(cfg.revocation_rate, rng))
            if self._revoke(step, rng)
        )
        rotations = self._rotate_due_sites(step, rng)
        return issued, cross_signed, revoked, rotations


class ServedSite(NamedTuple):
    """A serving site as clients see it."""

    hostname: str
    credential: ServerCredential


def _served(sites: List[_Site]) -> Tuple[ServedSite, ...]:
    return tuple(ServedSite(s.hostname, s.credential) for s in sites)


@dataclass(frozen=True)
class WorldFrame:
    """Everything clients read from one step of a :class:`ChurnWorld`,
    taken right after :meth:`ChurnWorld.advance`.  Fields are tuples of
    references to immutable certificates and credentials, never the
    world's live lists."""

    #: ``advance``'s ``(issued, cross_signed, revoked, rotations)``.
    counts: Tuple[int, int, int, int]
    #: Certificates revoked this step, in revocation order.
    revocations: Tuple[Certificate, ...]
    #: Every site after this step's rotations.
    sites: Tuple[ServedSite, ...]
    #: ``live_certificates(step)`` on preload-refresh steps, else ``None``.
    live: Optional[Tuple[Certificate, ...]]
    #: The lifecycle events this step recorded.
    events: Tuple[Tuple[int, str, str], ...]


class WorldTape:
    """One :class:`ChurnWorld` recorded once and replayed by any number
    of readers.

    The tape builds the world up front and captures what a client reads
    before the first step (preload certificates, trust store, sites,
    events).  The first reader to ask for a step advances the world and
    records that step's :class:`WorldFrame`; every later reader gets the
    recorded frame.  Frames are snapshots, so a reader starting at step 0
    after another has run the whole horizon sees step 0 as the first
    reader did.  Readers must not differ in anything the world reads: the
    staleness levels of one trial (which differ only in
    ``payload_refresh_every``) share one tape.
    """

    def __init__(self, config: ChurnConfig) -> None:
        self.config = config
        self._world = world = ChurnWorld(config)
        self.trust_store = world.trust_store
        self.initial_certificates = tuple(world.initial_certificates())
        self.initial_sites = _served(world.sites)
        self.initial_events = tuple(world.events)
        self.frames: List[WorldFrame] = []

    def frame(self, step: int) -> WorldFrame:
        """The frame of ``step``, recording every step up to it that no
        reader has reached yet."""
        while len(self.frames) <= step:
            self._record(len(self.frames))
        return self.frames[step]

    def _record(self, step: int) -> None:
        world = self._world
        revoked, events = len(world.revocations), len(world.events)
        counts = world.advance(step)
        live = None
        if step and step % self.config.preload_refresh_every == 0:
            live = tuple(world.live_certificates(step))
        self.frames.append(
            WorldFrame(
                counts=counts,
                revocations=tuple(world.revocations[revoked:]),
                sites=_served(world.sites),
                live=live,
                events=tuple(world.events[events:]),
            )
        )


def record_churn_step(m: StepMetrics) -> None:
    """Emit the ``webmodel.churn.*`` counters of one step.

    Shared by both churn engines (columnar and scalar reference):
    counters are pure sums over :class:`StepMetrics` fields, so equal
    metric series yield equal counters whichever engine — and whichever
    ``--jobs`` sharding, via the metered merge — produced them.
    """
    reg = obs.registry()
    if reg is None:
        return
    reg.inc("webmodel.churn.steps")
    reg.inc("webmodel.churn.icas_issued", m.icas_issued)
    reg.inc("webmodel.churn.cross_signs", m.icas_cross_signed)
    reg.inc("webmodel.churn.icas_revoked", m.icas_revoked)
    reg.inc("webmodel.churn.icas_expired", m.icas_expired_swept)
    reg.inc("webmodel.churn.preload_added", m.preload_added)
    reg.inc("webmodel.churn.payload_refreshes", m.payload_refreshes)
    reg.inc("webmodel.churn.site_rotations", m.site_rotations)
    reg.inc("webmodel.churn.handshakes", m.handshakes)
    reg.inc("webmodel.churn.stale_retries", m.fp_retries)
    reg.inc("webmodel.churn.fallbacks", m.fallbacks)
    reg.inc("webmodel.churn.failures", m.failures)
    reg.inc("webmodel.churn.icas_encountered", m.icas_encountered)
    reg.inc("webmodel.churn.icas_suppressed", m.icas_suppressed)
    reg.inc("webmodel.churn.distribution_bytes", m.distribution_bytes)
