"""Integration tests over the experiment drivers.

These assert the *shape claims* of the paper — who wins, by what rough
factor, where the crossovers fall — at reduced scale so the suite stays
fast; the benchmarks run the full-scale versions.
"""

import pytest

from repro.experiments import ablations, fig1, fig3, fig4, fig5, table1, table2
from repro.webmodel.population import ICAPopulation, PopulationConfig


@pytest.fixture(scope="module")
def population():
    return ICAPopulation(PopulationConfig(seed=1))


class TestTable1:
    @pytest.fixture(scope="class")
    def cells(self):
        return table1.compute_table1()

    def test_calibrated_matches_paper_pq_rows(self, cells):
        """PQ rows of the calibrated accounting within 3% of print."""
        for cell in cells:
            if cell.algorithm in ("ecdsa-p256", "rsa-2048"):
                continue
            assert cell.calibrated_kb == pytest.approx(
                cell.paper_kb, rel=0.03
            ), (cell.algorithm, cell.num_icas)

    def test_ordering_matches_paper(self, cells):
        """Within each chain length, algorithm ordering by size must match
        the paper's rows exactly (for DER and calibrated accounting)."""
        for n in (1, 2, 3):
            group = [c for c in cells if c.num_icas == n]
            by_der = [c.algorithm for c in sorted(group, key=lambda c: c.der_bytes)]
            by_paper = [
                c.algorithm for c in sorted(group, key=lambda c: c.paper_kb)
            ]
            assert by_der == by_paper

    def test_initcwnd_crossings(self, cells):
        """The paper's takeaway: Falcon-512 fits up to 3 ICAs; Dilithium-2
        is marginal at one ICA; everything bigger overflows."""
        verdict = table1.initcwnd_conclusions(cells)
        assert verdict["falcon-512/3"] is True
        assert verdict["dilithium2/1"] is True
        assert verdict["dilithium2/2"] is False
        assert verdict["dilithium5/1"] is False
        assert verdict["sphincs-128s/1"] is False

    def test_der_exceeds_calibrated(self, cells):
        assert all(c.der_bytes > c.calibrated_bytes for c in cells)

    def test_format_contains_all_algorithms(self, cells):
        text = table1.format_table1(cells)
        for name in table1.PAPER_KB:
            assert name in text


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self, population):
        return table2.compute_table2(population=population, num_domains=4000)

    def test_all_months_present(self, rows):
        assert len(rows) == 6

    def test_chain_mix_tracks_paper(self, rows):
        for row in rows:
            for depth in range(4):
                assert row.measured.share(depth) == pytest.approx(
                    row.paper_shares[depth], abs=0.04
                ), (row.measured.month, depth)

    def test_format_renders(self, rows):
        text = table2.format_table2(rows)
        assert "Jun. '22" in text


class TestFig1:
    def test_flow_messages_in_order(self):
        flow = fig1.trace_handshake("dilithium2", "kyber512", 1)
        names = [m.name for m in flow.messages]
        assert names == [
            "ClientHello",
            "ServerHello",
            "EncryptedExtensions",
            "Certificate",
            "CertificateVerify",
            "Finished",
            "Finished",
        ]

    def test_certificate_dominates_pq_flight(self):
        flow = fig1.trace_handshake("dilithium5", "ntru-hps-509", 2)
        cert = next(m for m in flow.messages if m.name == "Certificate")
        assert cert.handshake_bytes > 0.6 * flow.server_flight_bytes

    def test_pq_needs_more_flights_than_conventional(self):
        rsa = fig1.trace_handshake("rsa-2048", "ntru-hps-509", 2)
        sphincs = fig1.trace_handshake("sphincs-128f", "ntru-hps-509", 2)
        assert rsa.server_flight_rtts == 1
        assert sphincs.server_flight_rtts >= 3

    def test_format_flow(self):
        flow = fig1.trace_handshake("rsa-2048", "x25519", 1)
        assert "ClientHello" in fig1.format_flow(flow)
        assert "rsa-2048" in fig1.format_flow_summary([flow])


class TestFig3:
    def test_low_load_factor_costs_space(self):
        sweep = fig3.load_factor_sweep(load_factors=(0.1, 0.5, 0.9))
        for kind, series in sweep.items():
            sizes = [s for _, s in series]
            assert sizes[0] > sizes[-1], kind

    def test_vacuum_smallest_at_paper_point(self):
        sweep = fig3.load_factor_sweep(load_factors=(0.9,))
        sizes = {kind: series[0][1] for kind, series in sweep.items()}
        assert sizes["vacuum"] <= min(sizes.values())

    def test_throughput_positive_and_fast(self):
        results = fig3.throughput(num_items=1500)
        assert [r.kind for r in results] == list(fig3.BATCH_KINDS)
        for r in results:
            assert r.scalar_build_ops_per_s > 1_000
            assert r.batch_build_ops_per_s > 1_000
            assert r.scalar_query_ops_per_s > 5_000
            if r.kind in fig3.DYNAMIC_KINDS:
                assert r.delete_ops_per_s > 500
            else:
                assert r.delete_ops_per_s is None

    def test_capacity_sweep_monotone(self):
        sweep = fig3.capacity_sweep(capacities=(100, 245, 700, 1400))
        for kind, series in sweep.items():
            sizes = [s for _, s in series]
            assert sizes == sorted(sizes), kind

    def test_budget_holds_over_300_ics(self):
        """Fig. 3-right's claim, achieved by the vacuum structure."""
        budgets = fig3.budget_capacities()
        assert budgets["vacuum"] >= 300
        assert all(b >= 200 for b in budgets.values())

    @pytest.mark.parametrize(
        "kind", ["bloom", "counting-bloom", "cuckoo", "vacuum", "quotient", "xor"]
    )
    def test_budget_capacity_is_the_planners_largest(self, kind):
        """The printed max ICs is exactly the planner's largest accepted
        capacity under the same budget."""
        from repro.core.filter_config import plan_filter
        from repro.errors import ConfigurationError

        budget = 550
        capacity = fig3.budget_capacities(kinds=(kind,), budget_bytes=budget)[kind]
        plan = plan_filter(capacity, kind, budget_bytes=budget)
        assert plan.predicted_payload_bytes <= budget
        with pytest.raises(ConfigurationError):
            plan_filter(capacity + 1, kind, budget_bytes=budget)

    def test_formatters(self):
        assert "Fig. 3-left" in fig3.format_load_factor_sweep(
            fig3.load_factor_sweep(load_factors=(0.5, 0.9))
        )
        assert "insert/s" in fig3.format_throughput(
            fig3.throughput(num_items=300)
        )
        assert "max ICs" in fig3.format_capacity_sweep(
            fig3.capacity_sweep(capacities=(100,)), fig3.budget_capacities()
        )


class TestFig4:
    def test_monotone_claim(self):
        sweep = fig4.fpp_sweep()
        assert fig4.monotone_decreasing_in_fpp(sweep)

    def test_order_of_magnitude_span(self):
        """1e-1 -> 1e-4 FPP should roughly double-to-triple the size."""
        sweep = fig4.fpp_sweep(kinds=("cuckoo",))
        series = sweep["cuckoo"]
        loosest, tightest = series[0][1], series[-1][1]
        assert 1.5 <= tightest / loosest <= 5


class TestFig5:
    @pytest.fixture(scope="class")
    def engine(self, population):
        from repro.webmodel.cohort import CohortEngine

        return CohortEngine(
            fig5.fig5_config(users=2, draws=1_000), population=population
        )

    @pytest.fixture(scope="class")
    def result(self, engine):
        return engine.run()

    def test_reduction_in_paper_band(self, result):
        dv = fig5.data_volume(result)
        assert 0.6 <= dv.mean_reduction <= 0.85  # paper: ~0.73

    def test_savings_ordering(self, result):
        dv = fig5.data_volume(result)
        by_alg = {r.algorithm: r.mb_saved for r in dv.rows}
        assert by_alg["rsa-2048"] < by_alg["dilithium3"] < by_alg["dilithium5"]
        assert by_alg["dilithium5"] < by_alg["sphincs-128f"]

    def test_latency_fit_is_linear_with_flight_slope(self):
        models = fig5.latency_models(algorithms=("sphincs-128f",))
        fit = models[0].fit
        assert fit.r_squared > 0.98
        assert fit.slope >= 1.0  # at least one extra round trip per RTT

    def test_ttfb_suppression_helps_big_algorithms(self, engine):
        scenarios = {
            (s.algorithm, s.suppressed): s.summary
            for s in fig5.ttfb_scenarios(engine, algorithms=("sphincs-128f",))
        }
        assert (
            scenarios[("sphincs-128f", True)].mean
            < scenarios[("sphincs-128f", False)].mean
        )

    def test_formatters(self, engine, result):
        assert "reduction" in fig5.format_data_volume(fig5.data_volume(result))
        assert "slope" in fig5.format_latency_models(fig5.latency_models())
        assert "median ms" in fig5.format_ttfb(fig5.ttfb_scenarios(engine))

    def test_panels_identical_across_jobs(self):
        """Both cohort-backed panels read the same numbers at any
        ``--jobs``, once the measured lookup cost is pinned."""
        from repro.webmodel.cohort import CohortEngine

        config = fig5.fig5_config(users=4, draws=300, block_users=1)
        panels = []
        for jobs in (1, 2):
            engine = CohortEngine(config)
            panels.append(
                (
                    fig5.data_volume(engine.run(jobs=jobs)),
                    fig5.ttfb_scenarios(engine, lookup_s=1e-6),
                )
            )
        assert panels[0] == panels[1]


class TestAblations:
    def test_initcwnd_large_window_removes_penalty(self):
        rows = ablations.initcwnd_sweep(
            algorithms=("dilithium3",), windows=(10, 64)
        )
        wide = next(r for r in rows if r.initcwnd_segments == 64)
        assert wide.full_extra_rtts == 0
        assert not wide.suppression_useful

    def test_initcwnd_small_window_increases_rtts(self):
        rows = ablations.initcwnd_sweep(
            algorithms=("sphincs-128f",), windows=(4, 10)
        )
        tiny = next(r for r in rows if r.initcwnd_segments == 4)
        default = next(r for r in rows if r.initcwnd_segments == 10)
        assert tiny.full_extra_rtts > default.full_extra_rtts

    def test_filter_choice_rows(self, population):
        rows = ablations.filter_choice(
            kinds=("cuckoo", "vacuum"),
            users=1,
            draws=300,
            population=population,
        )
        assert len(rows) == 2
        for row in rows:
            assert 0.5 <= row.reduction <= 0.9
            assert row.extension_bytes > 0

    def test_format_functions(self, population):
        assert "initcwnd" in ablations.format_initcwnd(
            ablations.initcwnd_sweep(algorithms=("dilithium3",), windows=(10,))
        )
        rows = ablations.filter_choice(
            kinds=("vacuum",), users=1, draws=200, population=population
        )
        assert "vacuum" in ablations.format_filter_choice(rows)
