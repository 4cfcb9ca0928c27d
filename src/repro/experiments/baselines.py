"""Related-work comparison — AMQ filter vs cTLS dictionary vs per-peer
cache flags (§2 of the paper, quantified).

Runs the three designs over one identical browsing workload (one Fig. 5
cohort user's handshake destinations) and reports the axes the paper's
argument rests on:

* on-the-wire advertisement bytes per handshake;
* out-of-band synchronization traffic (cTLS's hidden cost);
* client state (the per-peer mapping the caching design needs);
* suppression coverage, including the first-contact misses that only the
  filter approach avoids ("without having to maintain any cross matching
  information between peers", §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.core.baselines import CTLSClient, CTLSDictionary, PeerCacheFlags
from repro.core.extension import EXTENSION_FRAMING_BYTES
from repro.core.suppression import ClientSuppressor
from repro.pki.store import IntermediatePreload
from repro.webmodel.cohort import CohortConfig, first_contact_ranks
from repro.webmodel.population import ICAPopulation, PopulationConfig


@dataclass(frozen=True)
class BaselineRow:
    design: str
    wire_bytes_per_handshake: float
    oob_sync_bytes: int
    client_state_bytes: int
    ica_suppression_rate: float
    first_contact_suppression: bool


def compare_designs(
    draws: int = 2_000,
    repeat_visits: int = 2,
    population: Optional[ICAPopulation] = None,
    seed: int = 5,
) -> List[BaselineRow]:
    """One workload, three designs: the handshake destinations of one
    cohort user drawing ``draws`` destinations on stream ``seed``.

    ``repeat_visits`` models reconnects: designs that learn per peer only
    pay off on revisits, while the filter suppresses on first contact.
    """
    population = population or ICAPopulation(PopulationConfig(seed=seed))
    destinations = first_contact_ranks(
        CohortConfig(num_users=1, handshakes_per_user=draws, seed=seed)
    ).tolist()
    contacts = destinations * repeat_visits

    hot = population.hot_ica_certificates()

    # --- AMQ filter (the paper's design) -----------------------------------
    suppressor = ClientSuppressor(
        preload=IntermediatePreload(hot), filter_kind="vacuum",
        budget_bytes=None, seed=seed,
    )
    filt = suppressor.filter
    filter_wire = len(suppressor.extension_payload()) + EXTENSION_FRAMING_BYTES
    filter_suppressed = filter_total = 0
    for rank in contacts:
        chain = population.chain_for_rank(rank)
        for fp in chain.ica_fingerprints():
            filter_total += 1
            filter_suppressed += filt.contains(fp)

    # --- cTLS dictionary -----------------------------------------------------
    dictionary = CTLSDictionary()
    dictionary.publish(hot)
    ctls = CTLSClient(dictionary)
    ctls.sync()
    ctls_suppressed = 0
    for rank in contacts:
        chain = population.chain_for_rank(rank)
        ctls_suppressed += len(ctls.suppressed(str(rank), chain))

    # --- per-peer cache flags ----------------------------------------------------
    flags = PeerCacheFlags()
    flags_suppressed = 0
    for rank in contacts:
        chain = population.chain_for_rank(rank)
        flags_suppressed += len(flags.suppressed(str(rank), chain))
        flags.observe(str(rank), chain)

    rows = [
        BaselineRow(
            design="amq-filter (this paper)",
            wire_bytes_per_handshake=filter_wire,
            oob_sync_bytes=0,
            client_state_bytes=32 * len(suppressor.cache) + filt.size_in_bytes(),
            ica_suppression_rate=filter_suppressed / filter_total,
            first_contact_suppression=True,
        ),
        BaselineRow(
            design="ctls-dictionary",
            wire_bytes_per_handshake=ctls.advertisement_bytes(""),
            oob_sync_bytes=dictionary.ledger.bytes_sent,
            client_state_bytes=32 * len(dictionary),
            ica_suppression_rate=ctls_suppressed / filter_total,
            first_contact_suppression=True,
        ),
        BaselineRow(
            design="peer-cache-flags",
            wire_bytes_per_handshake=flags.advertisement_bytes(""),
            oob_sync_bytes=0,
            client_state_bytes=flags.state_bytes(),
            ica_suppression_rate=flags_suppressed / filter_total,
            first_contact_suppression=False,
        ),
    ]
    return rows


def format_baselines(rows: Sequence[BaselineRow]) -> str:
    table_rows = [
        [
            r.design,
            f"{r.wire_bytes_per_handshake:.0f}",
            r.oob_sync_bytes,
            r.client_state_bytes,
            f"{100 * r.ica_suppression_rate:.1f}%",
            "yes" if r.first_contact_suppression else "no",
        ]
        for r in rows
    ]
    return format_table(
        ["design", "wire B/hs", "oob sync B", "client state B",
         "ICA suppression", "1st-contact sup"],
        table_rows,
        title="Related-work comparison — one workload, three designs",
    )
