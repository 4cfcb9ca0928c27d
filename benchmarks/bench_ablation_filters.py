"""Ablation — AMQ structure choice in the end-to-end pipeline.

Runs the Fig. 5 cohort with each filter (including the Bloom
baselines the paper rules out for deployability) over an identical
workload and compares extension size, reduction and false positives.
"""

from repro.experiments import ablations


def test_ablation_filter_choice(benchmark, population, scale):
    rows = benchmark.pedantic(
        ablations.filter_choice,
        kwargs={
            "users": 1,
            "draws": scale["draws"] // 3,
            "population": population,
        },
        rounds=1,
        iterations=1,
    )
    print()
    print(ablations.format_filter_choice(rows))
    by_kind = {r.filter_kind: r for r in rows}
    # Same workload -> same reduction (the structures only differ in size,
    # speed and deletability; FPs are rare at 0.1%).
    reductions = [r.reduction for r in rows]
    assert max(reductions) - min(reductions) < 0.05
    # Vacuum is the most compact *dynamic* filter; the static XOR filter
    # undercuts it slightly at the cost of rebuild-per-update.
    dynamic = {"cuckoo", "vacuum", "quotient", "counting-bloom"}
    assert by_kind["vacuum"].extension_bytes == min(
        r.extension_bytes for r in rows if r.filter_kind in dynamic
    )
    assert by_kind["xor"].extension_bytes <= by_kind["vacuum"].extension_bytes
