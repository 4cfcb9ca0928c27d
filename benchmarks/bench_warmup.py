"""Cache warm-up ablation — preloading vs organic learning."""

from repro.experiments.warmup import (
    format_warmup,
    handshakes_to_reach,
    warmup_curves,
)


def test_cache_warmup(benchmark, population, scale):
    curves = benchmark.pedantic(
        warmup_curves,
        kwargs={
            "users": scale["users"],
            "draws": scale["draws"],
            "checkpoint_every": scale["warmup_every"],
            "population": population,
        },
        rounds=1,
        iterations=1,
    )
    print()
    print(format_warmup(curves))
    by_strategy = {c.strategy: c for c in curves}
    preload = by_strategy["preload-hot"]
    cold = by_strategy["cold-learning"]
    combined = by_strategy["preload+learning"]
    # Preload starts strong; cold learning starts near zero but climbs.
    assert preload.suppression_rates[0] > 0.55
    assert cold.suppression_rates[0] < preload.suppression_rates[0]
    assert cold.suppression_rates[-1] > cold.suppression_rates[0] + 0.15
    # Learning on top of preload dominates both everywhere.
    for i in range(len(combined.suppression_rates)):
        assert combined.suppression_rates[i] >= preload.suppression_rates[i] - 1e-9
        assert combined.suppression_rates[i] >= cold.suppression_rates[i] - 1e-9
    threshold = handshakes_to_reach(cold, 0.6)
    print(f"\ncold client reaches 60% suppression after ~{threshold} handshakes")
