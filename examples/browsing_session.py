#!/usr/bin/env python3
"""A user browsing the web over PQ TLS — the paper's §5.3 scenario.

Simulates a user visiting domains from a synthetic Tranco-style ranking
(Zipf-1.9 visits, Pareto-2.5 pages, third-party content), with one
ICA-suppressed handshake against every unique destination, then prints
the Fig. 5 style summary: data saved per algorithm, TTFB impact, false
positives.

Run:  python examples/browsing_session.py [num_domains]
"""

import sys

from repro.experiments import fig5
from repro.netsim.metrics import summarize
from repro.webmodel import BrowsingSessionSimulator, SessionConfig

num_domains = int(sys.argv[1]) if len(sys.argv) > 1 else 100

print(f"simulating a browsing session over {num_domains} domains...\n")
simulator = BrowsingSessionSimulator(
    SessionConfig(seed=11, num_domains=num_domains)
)
results = simulator.run_many(runs=3)

volume = fig5.data_volume(results)
print(fig5.format_data_volume(volume))

print()
print(fig5.format_ttfb(fig5.ttfb_scenarios(results)))

result = results[0]
sphincs_full = summarize(result.ttfb_samples("sphincs-128f", False))
sphincs_sup = summarize(result.ttfb_samples("sphincs-128f", True))
print(
    f"\nSPHINCS+-128f p99 TTFB: {1000 * sphincs_full.p99:.0f} ms full vs "
    f"{1000 * sphincs_sup.p99:.0f} ms suppressed "
    f"({1000 * (sphincs_full.p99 - sphincs_sup.p99):.0f} ms saved in the tail)"
)
print(
    f"server-side filter stats: {sum(r.total_icas for r in results)} lookups, "
    f"{sum(o.suppressed_count for r in results for o in r.outcomes)} "
    "suppression hits"
)
