#!/usr/bin/env python3
"""Users browsing the web over PQ TLS — the paper's §5.3 scenario.

Simulates a few users, each drawing destinations (first-party domains
and embedded third-party origins) from a synthetic Tranco-style ranking,
with one ICA-suppressed handshake against every unique destination, then
prints the Fig. 5 style summary: data saved per algorithm, TTFB impact,
false positives.

Run:  python examples/browsing_session.py [draws_per_user]
"""

import sys

from repro.experiments import fig5
from repro.webmodel.cohort import CohortEngine

draws = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000

print(f"simulating 3 users x {draws} destination draws...\n")
engine = CohortEngine(fig5.fig5_config(users=3, draws=draws, seed=11))
result = engine.run()

print(fig5.format_data_volume(fig5.data_volume(result)))

print()
scenarios = fig5.ttfb_scenarios(engine)
print(fig5.format_ttfb(scenarios))

sphincs = {s.suppressed: s.summary for s in scenarios if s.algorithm == "sphincs-128f"}
print(
    f"\nSPHINCS+-128f p99 TTFB: {1000 * sphincs[False].p99:.0f} ms full vs "
    f"{1000 * sphincs[True].p99:.0f} ms suppressed "
    f"({1000 * (sphincs[False].p99 - sphincs[True].p99):.0f} ms saved in the tail)"
)
print(
    f"server-side filter stats: {result.stats.icas_encountered} lookups, "
    f"{result.stats.icas_suppressed_first} suppression hits"
)
