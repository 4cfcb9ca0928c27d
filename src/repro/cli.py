"""Command-line runner: regenerate any paper artifact without pytest.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro table1               # one artifact
    python -m repro fig5-left --users 3    # Fig. 5 on a smaller cohort
    python -m repro all                  # everything (reduced scale)

Each artifact prints the same rows/series the corresponding benchmark
prints; the benchmarks remain the canonical, asserted versions.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro._version import __version__
from repro.errors import ConfigurationError


def _run_table1(args) -> None:
    from repro.experiments import table1

    cells = table1.compute_table1()
    print(table1.format_table1(cells))


def _run_table2(args) -> None:
    from repro.experiments import table2

    print(table2.format_table2(table2.compute_table2(num_domains=args.crawl)))


def _run_fig1(args) -> None:
    from repro.experiments import fig1

    flows = fig1.compute_flows()
    print(fig1.format_flow_summary(flows))
    for flow in flows:
        print()
        print(fig1.format_flow(flow))


def _run_fig3(args) -> None:
    from repro.experiments import fig3

    print(fig3.format_load_factor_sweep(fig3.load_factor_sweep()))
    print()
    print(fig3.format_throughput(fig3.throughput(num_items=args.ops)))
    print()
    print(
        fig3.format_capacity_sweep(
            fig3.capacity_sweep(), fig3.budget_capacities()
        )
    )


def _run_fig4(args) -> None:
    from repro.experiments import fig4

    print(fig4.format_fpp_sweep(fig4.fpp_sweep()))


def _fig5_engine(args):
    """The Fig. 5 cohort engine the panels read (``--cohort-seed`` seeds
    both the draw streams and the population)."""
    from repro.experiments import fig5
    from repro.webmodel.cohort import CohortEngine

    return CohortEngine(
        fig5.fig5_config(
            users=args.users,
            draws=args.handshakes_per_user,
            seed=args.cohort_seed,
            payload_refresh_every=args.payload_refresh_every,
            **({"block_users": args.block_users} if args.block_users else {}),
        )
    )


def _print_fig5_left(result) -> None:
    from repro.experiments import fig5

    print(fig5.format_data_volume(fig5.data_volume(result)))


def _run_fig5_left(args) -> None:
    _print_fig5_left(_fig5_engine(args).run(jobs=args.jobs))


def _run_fig5_center(args) -> None:
    from repro.experiments import fig5

    models = fig5.latency_models()
    print(fig5.format_latency_models(models))
    for model in models:
        print(f"{model.algorithm}: {model.fit.describe(x_unit='s RTT')}")


def _run_fig5_right(args, engine=None) -> None:
    from repro.experiments import fig5

    engine = engine or _fig5_engine(args)
    print(fig5.format_ttfb(fig5.ttfb_scenarios(engine)))


def _run_fig5(args) -> None:
    """Composite Fig. 5 artifact: one cohort run (columnar engine, or its
    scalar reference via ``--engine scalar``) drives every panel."""
    from repro.webmodel.cohort import cohort_json_doc, format_cohort

    engine = _fig5_engine(args)
    if args.engine == "scalar":
        from repro.webmodel.cohort_reference import run_cohort_reference

        result = run_cohort_reference(engine.config, population=engine.population)
    else:
        result = engine.run(jobs=args.jobs)
    print(format_cohort(result))
    print()
    _print_fig5_left(result)
    print()
    _run_fig5_center(args)
    print()
    _run_fig5_right(args, engine)
    if args.json_out:
        import json

        with open(args.json_out, "w") as fh:
            json.dump(cohort_json_doc(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[cohort: JSON written to {args.json_out}]", file=sys.stderr)


def _run_ablation_initcwnd(args) -> None:
    from repro.experiments import ablations

    print(ablations.format_initcwnd(ablations.initcwnd_sweep()))


def _run_ablation_filters(args) -> None:
    from repro.experiments import ablations

    rows = ablations.filter_choice(users=args.users, draws=args.handshakes_per_user)
    print(ablations.format_filter_choice(rows))


def _run_baselines(args) -> None:
    from repro.experiments.baselines import compare_designs, format_baselines

    print(format_baselines(compare_designs(draws=args.handshakes_per_user)))


def _run_compression(args) -> None:
    from repro.experiments.compression import (
        compression_comparison,
        format_compression,
    )

    print(format_compression(compression_comparison()))


def _run_mixed_chains(args) -> None:
    from repro.experiments.mixed_chains import (
        format_mixed_chains,
        mixed_chain_comparison,
    )

    print(format_mixed_chains(mixed_chain_comparison()))


def _run_nonweb(args) -> None:
    from repro.webmodel.nonweb import compare_environments, format_environments

    print(format_environments(compare_environments(sample_handshakes=30)))


def _run_quic(args) -> None:
    from repro.experiments.quic import (
        format_transport_comparison,
        transport_comparison,
    )

    print(format_transport_comparison(transport_comparison()))


def _run_warmup(args) -> None:
    from repro.experiments.warmup import (
        format_warmup,
        warmup_checkpoint,
        warmup_curves,
    )

    print(
        format_warmup(
            warmup_curves(
                users=args.users,
                draws=args.handshakes_per_user,
                checkpoint_every=warmup_checkpoint(
                    args.users, args.handshakes_per_user
                ),
            )
        )
    )


def _run_report(args) -> None:
    from repro.experiments.report import ReportScale, generate_report

    print(
        generate_report(
            ReportScale(users=args.users, draws=args.handshakes_per_user,
                        crawl_domains=min(args.crawl, 10_000),
                        throughput_items=args.ops)
        )
    )


def _run_churn(args) -> None:
    from repro.experiments.churn import (
        ChurnConfig,
        ChurnExperimentConfig,
        churn_json_doc,
        format_churn,
        run_churn_experiment,
    )

    config = ChurnExperimentConfig(
        trials=args.trials,
        base=ChurnConfig(steps=args.steps, distribution=args.distribution),
        clients=args.clients,
        handshakes_per_client=args.handshakes_per_client,
        engine=args.engine,
    )
    results = run_churn_experiment(config, jobs=args.jobs)
    print(format_churn(results))
    if args.json_out:
        import json

        doc = churn_json_doc(config, results)
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[churn: JSON written to {args.json_out}]", file=sys.stderr)


def _run_estimator(args) -> None:
    from repro.experiments.estimator_model import (
        expected_duration_table,
        format_expected_durations,
    )

    print(format_expected_durations(expected_duration_table()))


ARTIFACTS: Dict[str, Callable] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "fig1": _run_fig1,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig5-left": _run_fig5_left,
    "fig5-center": _run_fig5_center,
    "fig5-right": _run_fig5_right,
    "ablation-initcwnd": _run_ablation_initcwnd,
    "ablation-filters": _run_ablation_filters,
    "baselines": _run_baselines,
    "churn": _run_churn,
    "compression": _run_compression,
    "mixed-chains": _run_mixed_chains,
    "nonweb": _run_nonweb,
    "quic": _run_quic,
    "report": _run_report,
    "warmup": _run_warmup,
    "estimator": _run_estimator,
}


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.fig5 import (
        PAPER_DRAWS_PER_USER,
        PAPER_SEED,
        PAPER_USERS,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'Intermediate Certificate "
            "Suppression in Post-Quantum TLS' (CoNEXT '22)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "artifact",
        choices=sorted(ARTIFACTS) + ["all", "list"],
        help="artifact to regenerate ('list' to enumerate, 'all' for everything)",
    )
    parser.add_argument(
        "--crawl", type=int, default=10_000,
        help="domains per Table-2 crawl (paper: 10000)",
    )
    parser.add_argument(
        "--ops", type=int, default=5_000,
        help="items for the throughput measurement",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help=(
            "worker processes for the sharded artifacts (fig5, fig5-left, "
            "churn; 0 = all cores, 1 = serial; results are identical "
            "either way)"
        ),
    )
    parser.add_argument(
        "--users", type=int, default=PAPER_USERS,
        help=(
            "Fig. 5 cohort size: simulated users, one browsing session "
            "each (paper: 10 sessions)"
        ),
    )
    parser.add_argument(
        "--handshakes-per-user", type=int, default=PAPER_DRAWS_PER_USER,
        help=(
            "destination draws per cohort user (repeats reuse the "
            "session; the default touches ~1,900 unique destinations, "
            "the paper's ~1950)"
        ),
    )
    parser.add_argument(
        "--payload-refresh-every", type=int, default=0,
        help=(
            "re-capture the advertised filter payload every K handshakes "
            "(0 = never; only matters once a user has learned new ICAs)"
        ),
    )
    parser.add_argument(
        "--cohort-seed", type=int, default=PAPER_SEED,
        help=(
            "seed of the Fig. 5 cohort's counter-based RNG streams and of "
            "its population"
        ),
    )
    parser.add_argument(
        "--block-users", type=int, default=0,
        help=(
            "cohort block size for --jobs sharding (0 = default; any "
            "value produces the identical result)"
        ),
    )
    parser.add_argument(
        "--engine", choices=("columnar", "scalar"), default="columnar",
        help=(
            "cohort/churn implementation: the columnar engine or the "
            "scalar per-handshake reference (identical results, wildly "
            "different speed)"
        ),
    )
    parser.add_argument(
        "--steps", type=int, default=12,
        help="time steps (epochs) for the churn experiment's lifecycle engine",
    )
    parser.add_argument(
        "--trials", type=int, default=3,
        help="churn: independent trials (worlds) per staleness level",
    )
    parser.add_argument(
        "--clients", type=int, default=64,
        help="churn cohort size (client columns per sweep cell)",
    )
    parser.add_argument(
        "--handshakes-per-client", type=int, default=2,
        help="site draws per churn client per epoch",
    )
    parser.add_argument(
        "--distribution", choices=("full", "delta"), default="full",
        help=(
            "churn: how refreshed filter payloads reach clients — 'full' "
            "re-ships the framed image every refresh, 'delta' ships "
            "versioned repro.delta/v1 patches (CRLite-style updates); "
            "cumulative bytes land in the doc's distribution_bytes"
        ),
    )
    parser.add_argument(
        "--json-out", metavar="PATH", default=None,
        help=(
            "write the artifact's machine-readable summary to PATH "
            "(churn: repro.churn/v1; fig5: repro.cohort/v1)"
        ),
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help=(
            "enable the observability registry and write its final state "
            "to PATH (.prom/.txt: Prometheus text; anything else: "
            "repro.obs/v1 JSON)"
        ),
    )
    return parser


def _export_metrics(path: str) -> None:
    from repro.obs.export import write_metrics
    from repro.runtime import artifacts

    from repro import obs

    reg = obs.registry()
    if reg is None:  # pragma: no cover - guarded by the caller
        return
    # Publish end-of-run artifact-cache totals as gauges (per-process
    # state; excluded from the serial-vs-parallel determinism contract
    # like the runtime.artifacts.* counters).
    for name, stats in artifacts.stats().items():
        labels = (("cache", name),)
        reg.set_gauge("runtime.artifacts.cache_hits", stats["hits"], labels)
        reg.set_gauge("runtime.artifacts.cache_misses", stats["misses"], labels)
        if "size" in stats:
            reg.set_gauge("runtime.artifacts.cache_size", stats["size"], labels)
    fmt = write_metrics(path, obs.snapshot())
    print(f"[metrics: {fmt} export written to {path}]", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.artifact == "list":
        for name in sorted(ARTIFACTS):
            print(name)
        return 0
    if args.artifact == "all":
        # 'report' regenerates everything itself and 'fig5' composes the
        # three fig5-* panels; running them inside 'all' would duplicate
        # every simulation.
        names = sorted(n for n in ARTIFACTS if n not in ("report", "fig5"))
    else:
        names = [args.artifact]
    metrics_out = getattr(args, "metrics_out", None)
    was_enabled = False
    if metrics_out:
        from repro import obs

        was_enabled = obs.enabled()
        obs.enable()
    try:
        for i, name in enumerate(names):
            if i:
                print("\n" + "=" * 78 + "\n")
            start = time.perf_counter()
            ARTIFACTS[name](args)
            if args.artifact == "all":
                print(f"\n[{name} done in {time.perf_counter() - start:.1f}s]")
        if metrics_out:
            _export_metrics(metrics_out)
    except ConfigurationError as exc:
        parser.error(str(exc))
    finally:
        if metrics_out and not was_enabled:
            from repro import obs

            obs.disable()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
