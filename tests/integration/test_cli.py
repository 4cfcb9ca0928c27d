"""Tests for the CLI artifact runner."""

import subprocess
import sys

import pytest

from repro.cli import ARTIFACTS, build_parser, main


class TestParser:
    def test_every_artifact_is_a_choice(self):
        parser = build_parser()
        for name in ARTIFACTS:
            args = parser.parse_args([name])
            assert args.artifact == name

    def test_defaults(self):
        from repro.experiments import fig5

        args = build_parser().parse_args(["table1"])
        # Fig. 5 runs at the paper's scale and seed by default.
        assert args.users == fig5.PAPER_USERS == 10
        assert args.handshakes_per_user == fig5.PAPER_DRAWS_PER_USER
        assert args.cohort_seed == fig5.PAPER_SEED == 1
        assert args.trials == 3

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACTS:
            assert name in out

    def test_table1_inprocess(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "sphincs-128s" in out

    def test_fig4_inprocess(self, capsys):
        assert main(["fig4"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_quic_inprocess(self, capsys):
        assert main(["quic"]) == 0
        assert "QUIC" in capsys.readouterr().out

    def test_estimator_inprocess(self, capsys):
        assert main(["estimator"]) == 0
        assert "expected handshake duration" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "repro" in proc.stdout

    def test_help_lists_no_session_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for gone in ("--cohort ", "--runs", "--domains"):
            assert gone not in out

    def test_fig5_left_with_small_scale(self, capsys):
        assert main(["fig5-left", "--users", "1", "--handshakes-per-user", "40"]) == 0
        assert "reduction" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "artifact, flag, message",
        [
            ("fig5-left", "--users", "num_users must be >= 1"),
            ("fig5-right", "--users", "num_users must be >= 1"),
            ("fig5-left", "--handshakes-per-user", "handshakes_per_user must be >= 1"),
            ("churn", "--trials", "trials must be >= 1"),
            ("churn", "--clients", "num_clients must be >= 1"),
        ],
    )
    def test_empty_fig5_inputs_are_usage_errors(
        self, capsys, artifact, flag, message
    ):
        with pytest.raises(SystemExit) as exc:
            main([artifact, flag, "0"])
        assert exc.value.code == 2
        err = capsys.readouterr()
        assert message in err.err
        assert err.out == ""

    def test_churn_with_json_out(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "churn.json"
        assert main(
            ["churn", "--steps", "4", "--trials", "1", "--json-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Filter staleness vs false-positive retries" in out
        assert "refresh every" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.churn/v1"
        assert doc["steps"] == 4
        assert doc["trials"] == 1
        assert len(doc["cells"]) == len(doc["staleness_levels"])

    def test_churn_json_out_is_jobs_invariant(self, tmp_path, capsys):
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert main(
            ["churn", "--steps", "4", "--trials", "2",
             "--jobs", "1", "--json-out", str(serial)]
        ) == 0
        assert main(
            ["churn", "--steps", "4", "--trials", "2",
             "--jobs", "2", "--json-out", str(parallel)]
        ) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()


class TestReport:
    def test_report_generates_all_sections(self, capsys):
        assert main(["report", "--users", "1", "--handshakes-per-user", "40",
                     "--crawl", "800", "--ops", "800"]) == 0
        out = capsys.readouterr().out
        for heading in (
            "# Reproduction report",
            "Table 1", "Table 2", "Figure 1", "Figure 3", "Figure 4",
            "Figure 5", "Ablations and extensions",
        ):
            assert heading in out
