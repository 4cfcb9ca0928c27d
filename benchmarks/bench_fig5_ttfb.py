"""Figure 5-right — time to first byte per scenario.

TTFB distributions for RSA-2048 / Dilithium V / SPHINCS+-128f with and
without ICA suppression, one sample per handshake of the Fig. 5 cohort,
with false positives doubling the TTFB as in the paper's method.
"""

from repro.experiments import fig5
from repro.webmodel.cohort import CohortEngine


def test_fig5_right_ttfb(benchmark, population, scale):
    engine = CohortEngine(
        fig5.fig5_config(users=scale["users"], draws=scale["draws"]),
        population=population,
    )
    scenarios = benchmark.pedantic(
        fig5.ttfb_scenarios, args=(engine,), rounds=1, iterations=1
    )
    print()
    print(fig5.format_ttfb(scenarios))
    stats = {(s.algorithm, s.suppressed): s.summary for s in scenarios}
    # Suppression must help the large-signature schemes and never hurt.
    for alg in ("dilithium5", "sphincs-128f"):
        assert stats[(alg, True)].mean <= stats[(alg, False)].mean
    assert (
        stats[("sphincs-128f", False)].mean
        - stats[("sphincs-128f", True)].mean
    ) > 0.01  # tens of ms mean, hundreds in the tail
    # PQ TTFB remains above the conventional baseline (suppression narrows,
    # does not erase, the gap for SPHINCS+).
    assert stats[("sphincs-128f", True)].mean > stats[("rsa-2048", False)].mean
