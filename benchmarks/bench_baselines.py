"""Related-work comparison — AMQ filter vs cTLS dictionary vs per-peer
cache flags over one identical browsing workload (§2, quantified)."""

from repro.experiments.baselines import compare_designs, format_baselines


def test_related_work_comparison(benchmark, population, scale):
    rows = benchmark.pedantic(
        compare_designs,
        kwargs={
            "draws": scale["draws"],
            "repeat_visits": 2,
            "population": population,
        },
        rounds=1,
        iterations=1,
    )
    print()
    print(format_baselines(rows))
    by_design = {r.design.split(" ")[0]: r for r in rows}
    amq = by_design["amq-filter"]
    flags = by_design["peer-cache-flags"]
    ctls = by_design["ctls-dictionary"]
    # The paper's §4.2 advantage: suppression without per-peer mapping,
    # on first contact, with no out-of-band synchronization channel.
    assert amq.oob_sync_bytes == 0
    assert ctls.oob_sync_bytes > 0
    assert amq.ica_suppression_rate >= flags.ica_suppression_rate
    # With 2 visits per destination the flag design caps at ~50% of the
    # filter's coverage on hot ICAs plus revisit coverage.
    assert flags.ica_suppression_rate < 0.65
