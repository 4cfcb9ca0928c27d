"""Figure 5-left — ICA data exchanged per browsing session.

Runs the §5.3 Fig. 5 cohort (REPRO_FULL=1 for the paper's 10 users x
4,200 destination draws) and reports exchanged ICA data with/without
suppression for the baseline and the PQ extrapolations.
"""

from repro.experiments import fig5
from repro.webmodel.cohort import CohortEngine


def test_fig5_left_data_volume(benchmark, population, scale):
    engine = CohortEngine(
        fig5.fig5_config(users=scale["users"], draws=scale["draws"]),
        population=population,
    )
    result = benchmark.pedantic(engine.run, rounds=1, iterations=1)
    dv = fig5.data_volume(result)
    print()
    print(fig5.format_data_volume(dv))

    # Shape claims (paper: ~73% reduction; ~15 MB saved for Dilithium III
    # and ~45 MB for SPHINCS+-128f at full scale).
    assert 0.6 <= dv.mean_reduction <= 0.85
    by_alg = {r.algorithm: r for r in dv.rows}
    assert by_alg["dilithium3"].mb_saved > 3 * by_alg["rsa-2048"].mb_saved
    assert by_alg["sphincs-128f"].mb_saved > 2.5 * by_alg["dilithium3"].mb_saved
    if scale["draws"] >= fig5.PAPER_DRAWS_PER_USER:
        # Paper: ~15 MB (Dilithium III) and ~45 MB (SPHINCS+-128f); our
        # session touches slightly fewer unique destinations, landing a
        # few MB lower — same decade, same ordering.
        assert 8 <= by_alg["dilithium3"].mb_saved <= 25
        assert 25 <= by_alg["sphincs-128f"].mb_saved <= 60
