"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--algorithm", "wcc"])
        assert args.graph == "TWT" and args.machines == 8


SMALL = ["--scale", "0.0001"]


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--graph", "LJ", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "gini" in out and "crossing edges" in out

    def test_run_pagerank(self, capsys):
        assert main(["run", "--algorithm", "pr_pull", "--graph", "LJ",
                     "--machines", "2", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "paper-scale equivalent" in out and "traffic" in out

    def test_run_with_ghost_threshold(self, capsys):
        assert main(["run", "--algorithm", "pr_push", "--graph", "LJ",
                     "--machines", "2", "--ghost-threshold", "50", *SMALL]) == 0

    def test_run_sssp_weighted(self, capsys):
        assert main(["run", "--algorithm", "sssp", "--graph", "LJ",
                     "--machines", "2", *SMALL]) == 0

    def test_compare(self, capsys):
        assert main(["compare", "--algorithm", "pr_push", "--graph", "LJ",
                     "--machines", "2,4", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "SA" in out and "PGX" in out and "GL" in out and "GX" in out

    def test_compare_pull_omits_push_only_systems(self, capsys):
        assert main(["compare", "--algorithm", "pr_pull", "--graph", "LJ",
                     "--machines", "2", *SMALL]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        # GL and GX only run push-style PageRank
        assert [row.split()[0] for row in rows] == ["SA", "PGX"]
        assert all(len(row.split()) == 3 for row in rows)

    def test_generate_binary(self, tmp_path, capsys):
        out_file = tmp_path / "g.bin"
        assert main(["generate", "--graph", "WIK", *SMALL,
                     "--format", "binary", "--out", str(out_file)]) == 0
        from repro.graph.io import load_binary

        g = load_binary(out_file)
        assert g.num_edges > 0

    def test_generate_text_weighted(self, tmp_path):
        out_file = tmp_path / "g.txt"
        assert main(["generate", "--graph", "WIK", *SMALL, "--weighted",
                     "--format", "text", "--out", str(out_file)]) == 0
        from repro.graph.io import load_edge_list

        assert load_edge_list(out_file).edge_weights is not None


class TestObservability:
    def test_report_pagerank_alias(self, capsys):
        assert main(["report", "--algo", "pagerank", "--graph", "LJ",
                     "--machines", "2", *SMALL]) == 0
        out = capsys.readouterr().out
        for token in ("Per-layer overheads", "task", "comm", "network",
                      "ghost", "barrier", "total"):
            assert token in out

    def test_report_rejects_unknown_algo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--algo", "bogus"])

    def test_run_metrics_out_writes_both_formats(self, tmp_path, capsys):
        prefix = tmp_path / "m"
        assert main(["run", "--algorithm", "pr_pull", "--graph", "LJ",
                     "--machines", "2", *SMALL,
                     "--metrics-out", str(prefix)]) == 0
        prom = (tmp_path / "m.prom").read_text()
        assert "repro_jobs_total" in prom and "# TYPE" in prom
        import json

        doc = json.loads((tmp_path / "m.json").read_text())
        assert "repro_jobs_total" in doc["metrics"]

    def test_run_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert main(["run", "--algorithm", "pr_pull", "--graph", "LJ",
                     "--machines", "2", *SMALL,
                     "--trace-out", str(path)]) == 0
        import json

        doc = json.loads(path.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_report_with_exports(self, tmp_path, capsys):
        assert main(["report", "--algo", "wcc", "--graph", "LJ",
                     "--machines", "2", *SMALL,
                     "--metrics-out", str(tmp_path / "w"),
                     "--trace-out", str(tmp_path / "w_trace.json")]) == 0
        assert (tmp_path / "w.prom").exists()
        assert (tmp_path / "w.json").exists()
        # the trace comes from a span profiler, but only --profile folds
        # its critical-path columns into the report
        assert "crit-path" not in capsys.readouterr().out
        import json

        events = json.loads((tmp_path / "w_trace.json").read_text())[
            "traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "M" and e["args"]["name"] == "critical path"
                   for e in events)


class TestProfile:
    def test_report_profile_folds_critical_path_columns(self, capsys):
        assert main(["report", "--algo", "pagerank", "--graph", "LJ",
                     "--machines", "2", *SMALL, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "crit-path" in out and "cp-share" in out
        assert "critical path:" in out and "straggler machine" in out

    def test_profile_two_session_default(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        summary = tmp_path / "profile.json"
        assert main(["profile", "--graph", "LJ", *SMALL, "--machines", "2",
                     "--iterations", "2", "--trace-out", str(trace),
                     "--json-out", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "two-session PageRank+SSSP" in out
        assert "session alice" in out and "session bob" in out
        assert "total critical path" in out
        import json

        doc = json.loads(trace.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        summary_doc = json.loads(summary.read_text())
        assert summary_doc["schema"] == "repro-profile/v1"
        assert set(summary_doc["sessions"]) == {"alice", "bob"}
        assert all(j["critical_path_len"] > 0 for j in summary_doc["jobs"])

    def test_profile_solo_algo(self, capsys):
        assert main(["profile", "--solo", "--algo", "wcc", "--graph", "LJ",
                     *SMALL, "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert "wcc solo" in out
        assert "critical-path segments" in out and "balance:" in out


class TestServe:
    def test_serve_balanced_trace_is_fair(self, capsys):
        assert main(["serve", "--workload", "balanced", "--graph", "LJ",
                     "--machines", "2", "--sessions", "3",
                     "--jobs-per-session", "2", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "over fair share: (none)" in out
        assert "fair-share deficits:" in out
        assert "tenant0" in out and "tenant1" in out and "tenant2" in out
        assert "admitted" in out and "dispatched" in out

    def test_serve_skewed_trace_flags_hog(self, capsys):
        assert main(["serve", "--workload", "skewed", "--graph", "LJ",
                     "--machines", "2", "--sessions", "3",
                     "--jobs-per-session", "2", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "over fair share: tenant0" in out

    def test_serve_cache_trace_reports_latency_split(self, capsys):
        assert main(["serve", "--cache", "--graph", "LJ", *SMALL,
                     "--machines", "2", "--seed", "7", "--reads", "60",
                     "--pool", "6", "--mutate-every", "25"]) == 0
        out = capsys.readouterr().out
        assert "cached read trace" in out
        assert "hit rate" in out and "epoch bumps" in out
        assert "hit p50=" in out and "miss p50=" in out
        assert "mean speedup" in out
        assert "reader usage:" in out

    def test_serve_cache_rate_limit_rejects(self, capsys):
        assert main(["serve", "--cache", "--graph", "LJ", *SMALL,
                     "--machines", "2", "--seed", "7", "--reads", "40",
                     "--pool", "4", "--read-rate", "1e-9"]) == 0
        out = capsys.readouterr().out
        # burst of 8 tokens, then every further read is rate-limited
        assert "(32 rate-limited)" in out

    def test_serve_cache_metrics_out_includes_cache_families(
            self, tmp_path, capsys):
        prefix = tmp_path / "c"
        assert main(["serve", "--cache", "--graph", "LJ", *SMALL,
                     "--machines", "2", "--seed", "7", "--reads", "40",
                     "--metrics-out", str(prefix)]) == 0
        prom = (tmp_path / "c.prom").read_text()
        assert "repro_cache_requests_total" in prom
        assert "repro_cache_read_seconds_bucket" in prom
        assert "repro_cache_saved_seconds_total" in prom

    def test_serve_metrics_out_includes_sched_families(self, tmp_path,
                                                       capsys):
        prefix = tmp_path / "s"
        assert main(["serve", "--workload", "balanced", "--graph", "LJ",
                     "--machines", "2", "--sessions", "2",
                     "--jobs-per-session", "1", *SMALL,
                     "--metrics-out", str(prefix)]) == 0
        prom = (tmp_path / "s.prom").read_text()
        assert "repro_sched_admitted_total" in prom
        assert "repro_sched_wait_seconds_bucket" in prom
        import json

        doc = json.loads((tmp_path / "s.json").read_text())
        assert "repro_sched_dispatched_total" in doc["metrics"]
        assert "repro_sched_queue_depth" in doc["metrics"]


class TestAudit:
    def test_audit_smoke(self, tmp_path, capsys):
        """Two perturbed schedules over a tiny LJ stand-in: every positive
        scenario bit-identical, negative control caught, JSON written."""
        out_path = tmp_path / "verdict.json"
        rc = main(["audit", "--graph", "LJ", "--scale", "2e-5",
                   "--machines", "4", "--schedules", "2", "--seed", "7",
                   "--iterations", "2", "--json-out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "audit: PASS" in out
        assert "caught-divergence" in out
        import json

        doc = json.loads(out_path.read_text())
        assert doc["passed"] is True
        assert doc["negative_control_flagged"] is True
        positives = [s for s in doc["scenarios"]
                     if not s["expect_divergence"]]
        assert positives and all(s["bit_identical"] and
                                 s["violations"] == 0 for s in positives)
