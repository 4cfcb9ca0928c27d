"""One-shot reproduction report.

``generate_report`` regenerates every artifact at a configurable scale
and assembles a single markdown document — the machine-written companion
to the hand-annotated EXPERIMENTS.md. Used by ``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro._version import __version__


@dataclass(frozen=True)
class ReportScale:
    """How big to run the simulations (defaults stay under a minute)."""

    users: int = 3
    draws: int = 2_100
    crawl_domains: int = 4000
    throughput_items: int = 4000


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(
    scale: ReportScale = ReportScale(),
    population=None,
) -> str:
    """Regenerate all artifacts and return the markdown report."""
    from repro.experiments import (
        ablations,
        baselines,
        compression,
        fig1,
        fig3,
        fig4,
        fig5,
        mixed_chains,
        quic,
        table1,
        table2,
    )
    from repro.experiments.estimator_model import (
        expected_duration_table,
        format_expected_durations,
    )
    from repro.experiments.warmup import (
        format_warmup,
        warmup_checkpoint,
        warmup_curves,
    )
    from repro.webmodel.nonweb import compare_environments, format_environments
    from repro.webmodel.cohort import CohortEngine
    from repro.webmodel.population import ICAPopulation

    fig5_config = fig5.fig5_config(users=scale.users, draws=scale.draws)
    population = population or ICAPopulation(fig5_config.population)
    sections: List[str] = [
        "# Reproduction report",
        "",
        f"repro {__version__} — scale: {scale.users} users x {scale.draws} "
        f"destination draws, {scale.crawl_domains}-domain crawls.",
        "",
    ]

    sections.append(_section(
        "Table 1 — authentication data",
        table1.format_table1(table1.compute_table1()),
    ))
    sections.append(_section(
        "Table 2 — chain statistics",
        table2.format_table2(
            table2.compute_table2(
                population=population, num_domains=scale.crawl_domains
            )
        ),
    ))
    sections.append(_section(
        "Figure 1 — handshake flights",
        fig1.format_flow_summary(fig1.compute_flows()),
    ))
    sections.append(_section(
        "Figure 3 — filter feasibility",
        "\n\n".join(
            [
                fig3.format_load_factor_sweep(fig3.load_factor_sweep()),
                fig3.format_max_load(fig3.measured_max_load(trials=2)),
                fig3.format_throughput(
                    fig3.throughput(num_items=scale.throughput_items)
                ),
                fig3.format_capacity_sweep(
                    fig3.capacity_sweep(), fig3.budget_capacities()
                ),
            ]
        ),
    ))
    sections.append(_section(
        "Figure 4 — extension size vs FPP",
        fig4.format_fpp_sweep(fig4.fpp_sweep()),
    ))

    engine = CohortEngine(fig5_config, population=population)
    sections.append(_section(
        "Figure 5 — browsing impact",
        "\n\n".join(
            [
                fig5.format_data_volume(fig5.data_volume(engine.run())),
                fig5.format_latency_models(fig5.latency_models()),
                fig5.format_ttfb(fig5.ttfb_scenarios(engine)),
            ]
        ),
    ))
    sections.append(_section(
        "Ablations and extensions",
        "\n\n".join(
            [
                ablations.format_initcwnd(ablations.initcwnd_sweep()),
                baselines.format_baselines(
                    baselines.compare_designs(
                        draws=scale.draws, population=population
                    )
                ),
                quic.format_transport_comparison(quic.transport_comparison()),
                compression.format_compression(
                    compression.compression_comparison()
                ),
                mixed_chains.format_mixed_chains(
                    mixed_chains.mixed_chain_comparison()
                ),
                format_warmup(
                    warmup_curves(
                        users=scale.users,
                        draws=scale.draws,
                        checkpoint_every=warmup_checkpoint(
                            scale.users, scale.draws
                        ),
                        population=population,
                    )
                ),
                format_expected_durations(expected_duration_table()),
                format_environments(compare_environments(sample_handshakes=20)),
            ]
        ),
    ))
    return "\n".join(sections)
