"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "stream.tsv"
    code = main(["generate", "-o", str(path), "--days", "0.5",
                 "--rate", "800", "--seed", "3", "--users", "100"])
    assert code == 0
    return path


@pytest.fixture
def snapshot(dataset, tmp_path):
    path = tmp_path / "state.json"
    code = main(["index", str(dataset), "-o", str(path),
                 "--pool-size", "100"])
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "-o", "x.tsv"])
        assert args.days == 2.0
        assert args.seed == 7


class TestGenerate:
    def test_writes_dataset(self, dataset):
        assert dataset.exists()
        header = dataset.read_text().splitlines()[0]
        assert header.startswith("msg_id\t")

    def test_message_count(self, dataset):
        lines = dataset.read_text().splitlines()
        assert len(lines) - 1 == 400  # 0.5 days * 800/day


class TestStats:
    def test_stats_output(self, dataset, capsys):
        assert main(["stats", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "messages" in out
        assert "400" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.tsv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestIndex:
    def test_snapshot_written(self, snapshot):
        assert snapshot.exists()

    def test_full_index_mode(self, dataset, tmp_path, capsys):
        path = tmp_path / "full.json"
        assert main(["index", str(dataset), "-o", str(path)]) == 0
        assert "bundles" in capsys.readouterr().out

    def test_store_option(self, dataset, tmp_path):
        path = tmp_path / "state.json"
        store_dir = tmp_path / "bundles"
        code = main(["index", str(dataset), "-o", str(path),
                     "--pool-size", "20", "--store", str(store_dir)])
        assert code == 0
        assert store_dir.exists()


class TestSearch:
    def test_search_runs(self, snapshot, capsys):
        code = main(["search", str(snapshot), "game OR market OR tsunami",
                     "-k", "3"])
        out = capsys.readouterr().out
        if code == 0:
            assert "bundle" in out
        else:
            assert "no matching bundles" in out

    def test_search_no_hits(self, snapshot, capsys):
        code = main(["search", str(snapshot), "zzzzzz"])
        assert code == 1
        assert "no matching bundles" in capsys.readouterr().out


class TestArchive:
    def test_archive_search_after_index(self, dataset, tmp_path, capsys):
        snapshot_path = tmp_path / "state.json"
        store_dir = tmp_path / "bundles"
        assert main(["index", str(dataset), "-o", str(snapshot_path),
                     "--pool-size", "10", "--store", str(store_dir)]) == 0
        capsys.readouterr()
        code = main(["archive", str(store_dir),
                     "game OR market OR time OR people", "-k", "3"])
        out = capsys.readouterr().out
        if code == 0:
            assert "archived bundles" in out
        else:
            assert "no matching archived bundles" in out

    def test_archive_no_hits(self, dataset, tmp_path, capsys):
        store_dir = tmp_path / "bundles"
        assert main(["index", str(dataset), "-o",
                     str(tmp_path / "s.json"), "--pool-size", "10",
                     "--store", str(store_dir)]) == 0
        code = main(["archive", str(store_dir), "zzzzzzz"])
        assert code == 1


class TestShow:
    def test_show_existing_bundle(self, snapshot, capsys):
        from repro.storage.snapshot import load_snapshot

        indexer = load_snapshot(snapshot)
        bundle_id = max(indexer.pool, key=len).bundle_id
        assert main(["show", str(snapshot), str(bundle_id)]) == 0
        assert f"bundle {bundle_id}" in capsys.readouterr().out

    def test_show_with_storyline(self, snapshot, capsys):
        from repro.storage.snapshot import load_snapshot

        indexer = load_snapshot(snapshot)
        bundle_id = max(indexer.pool, key=len).bundle_id
        assert main(["show", str(snapshot), str(bundle_id),
                     "--storyline"]) == 0
        assert "storyline" in capsys.readouterr().out

    def test_show_unknown_bundle(self, snapshot, capsys):
        assert main(["show", str(snapshot), "999999"]) == 1
        assert "not in the snapshot" in capsys.readouterr().err


class TestSearchBudget:
    def test_budget_flag_parses(self):
        args = build_parser().parse_args(
            ["search", "s.json", "q", "--budget-ms", "5"])
        assert args.budget_ms == 5.0

    def test_generous_budget_matches_unbounded(self, snapshot, capsys):
        query = "game OR market OR tsunami"
        code_plain = main(["search", str(snapshot), query, "-k", "3"])
        plain = capsys.readouterr().out
        code_budget = main(["search", str(snapshot), query, "-k", "3",
                            "--budget-ms", "60000"])
        budgeted = capsys.readouterr().out
        assert code_budget == code_plain
        assert "PARTIAL" not in budgeted
        # Same ranking: a budget that never expires changes nothing.
        assert budgeted == plain


class TestFleetSearch:
    """``repro search ROOT Q`` answers a fleet root from one scatter."""

    def test_one_scatter_feeds_table_and_coverage(self, tmp_path, capsys,
                                                   monkeypatch):
        from repro.core.message import parse_message
        from repro.runtime import ShardedRuntime

        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2) as runtime:
            runtime.ingest_stream(
                [parse_message(i, f"u{i % 5}", 1_249_084_800.0 + i,
                               f"#tag{i % 3} report {i}")
                 for i in range(60)], batch_size=20)
        outcomes = []
        search_within = ShardedRuntime.search_within

        def counting(self, *args, **kwargs):
            outcomes.append(search_within(self, *args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(ShardedRuntime, "search_within", counting)
        code = main(["search", str(root), "#tag1 report", "-k", "3",
                     "--budget-ms", "60000"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.hits and len(outcome.shards) == len(outcome.hits)
        assert f"(2 shards, coverage {outcome.coverage:.0%})" in out
        rows = [line.split()[:2] for line in out.splitlines()[3:]]
        assert rows == [[str(shard), str(hit.bundle_id)] for shard, hit
                        in zip(outcome.shards, outcome.hits)]

    def test_eq7_weights_reach_every_worker(self, tmp_path, capsys):
        # --alpha/--beta ride the search RPC: each hit's score is its
        # shard's own BundleSearchEngine score under those weights.
        from repro.cli import _generate
        from repro.query.bundle_search import BundleSearchEngine
        from repro.reliability.supervisor import ResilientIndexer
        from repro.runtime import ShardedRuntime

        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2) as runtime:
            runtime.ingest_stream(_generate(7, 600), batch_size=100)
        query = "#ibm mainframe booth"

        def table(*flags):
            assert main(["search", str(root), query, "-k", "8",
                         *flags]) == 0
            return [line.split()[:4]
                    for line in capsys.readouterr().out.splitlines()[3:]]

        default = table()
        flat = table("--alpha", "0", "--beta", "0")
        assert flat != default
        expected = {}
        for shard in (0, 1):
            with ResilientIndexer.open(root / f"shard-{shard:02d}") as stack:
                engine = BundleSearchEngine(stack.indexer, alpha=0, beta=0)
                expected.update(
                    ((str(shard), str(hit.bundle_id)), f"{hit.score:.3f}")
                    for hit in engine.search(query, k=8))
        assert {row[0] for row in flat} == {"0", "1"}
        for shard, bundle, _, score in flat:
            assert score == expected[shard, bundle]

    def test_table_cells_match_inprocess_oracle(self, tmp_path, capsys):
        # The fleet ships rows, not bundles: size, score, last post and
        # summary cells must still read what the shard's live bundle
        # says, here the routed in-process engines'.
        import re

        from repro.cli import _generate, _stamp
        from repro.runtime import ShardedRuntime
        from tests.sharding_oracle import RoutedEngines

        root = tmp_path / "fleet"
        messages = _generate(7, 600)
        with ShardedRuntime(root, 2) as runtime:
            runtime.ingest_stream(messages, batch_size=100)
        query = "#ibm mainframe booth"
        assert main(["search", str(root), query, "-k", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()[3:]
        cells = [re.split(r" {2,}", line.strip()) for line in lines]
        local = RoutedEngines(2, "hash").ingest_each(messages)
        expected = [[str(shard), str(hit.bundle_id), str(hit.size),
                     f"{hit.score:.3f}", _stamp(hit.last_post),
                     ", ".join(hit.summary_words[:6])]
                    for shard, hit in local.search_by_shard(query, k=8)]
        assert len(expected) == 8
        assert any(int(row[2]) > 1 for row in expected)
        assert cells == expected

    @pytest.mark.parametrize("flags", [[], ["--workers", "2"]])
    @pytest.mark.parametrize("exists", [False, True])
    def test_path_without_marker_creates_nothing(self, exists, flags,
                                                 tmp_path, capsys):
        # Only a runtime.json marker makes a path a fleet root: no
        # spelling of a search may spawn (and so create) a fleet.
        root = tmp_path / "fleet"
        if exists:
            root.mkdir()
        try:
            code = main(["search", str(root), "report", *flags])
        except SystemExit as refused:  # argparse rejects the flags
            code = refused.code
        assert code != 0
        assert "error:" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == ([root] if exists else [])


class TestTop:
    def test_top_once_renders_nonzero_dashboard(self, capsys):
        code = main(["top", "--once", "--messages", "1200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro top" in out
        ingested = next(line for line in out.splitlines()
                        if line.startswith("ingested"))
        count, unit = ingested.split()[1:3]
        assert unit == "msgs" and count != "0"
        assert "bundle match (Alg. 1)" in out
        assert "whole ingest" in out
        assert "wal appends" in out
        assert "breaker" in out

    def test_top_once_with_dataset_and_sinks(self, dataset, tmp_path,
                                             capsys):
        trace_out = tmp_path / "traces.jsonl"
        telemetry_out = tmp_path / "telemetry.jsonl"
        code = main(["top", str(dataset), "--once", "--sample", "1.0",
                     "--trace-out", str(trace_out),
                     "--telemetry-out", str(telemetry_out)])
        assert code == 0
        assert "traces:" in capsys.readouterr().out

        from repro.obs import read_jsonl

        traces = list(read_jsonl(trace_out))
        assert traces, "sampled traces must reach the JSONL sink"
        assert {t["tags"]["outcome"] for t in traces} <= {
            "new-bundle", "matched", "shed", "deferred",
            "quarantined", "folded", "late"}
        records = list(read_jsonl(telemetry_out))
        assert records, "the flight recorder must hold snapshots"
        assert records[-1]["metrics"]["counters"][
            "repro_messages_ingested_total"] > 0

    def test_top_live_frames_clear_screen(self, capsys):
        code = main(["top", "--messages", "900", "--refresh", "400",
                     "--sample", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\x1b[2J") >= 2  # live frames + final frame


class TestMetrics:
    def test_prometheus_export_has_nonzero_ingest_counters(self, capsys):
        code = main(["metrics", "--messages", "1200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE repro_messages_ingested_total counter" in out
        ingested = [l for l in out.splitlines()
                    if l.startswith("repro_messages_ingested_total ")]
        assert ingested and float(ingested[0].split()[1]) > 0
        assert 'repro_stage_seconds_bucket{stage="bundle_match"' in out
        assert "repro_overload_rung" in out
        assert 'repro_admission_total{verdict="admitted"}' in out

    def test_json_export_parses(self, capsys):
        import json

        code = main(["metrics", "--messages", "800", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        snapshot = json.loads(out)
        assert snapshot["counters"]["repro_messages_ingested_total"] > 0
        assert "repro_ingest_latency_seconds" in snapshot["histograms"]

    def test_replay_guard_folds_generated_copies(self, capsys):
        # The telemetry replay's default guard is not a bystander: a
        # generated stream's verbatim re-shares fold into their origins.
        import json

        code = main(["metrics", "--messages", "1200", "--format", "json",
                     "--sample", "0"])
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert code == 0
        assert counters["repro_guard_folded_total"] > 0

    def test_parser_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.format == "prometheus"
        assert args.sample == 0.01
        assert args.messages is None


@pytest.mark.chaos
class TestHealth:
    def test_health_surge_self_check(self, capsys):
        code = main(["health", "--messages", "1500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro health" in out
        assert "accounting" in out
        assert "overall: healthy" in out

    def test_health_with_chaos(self, capsys):
        code = main(["health", "--messages", "1500", "--chaos"])
        out = capsys.readouterr().out
        assert code == 0
        assert "store chaos" in out
        assert "spill path: recovered" in out
        assert "overall: healthy" in out


class TestExplain:
    def test_explain_replay_prints_narrative(self, capsys):
        code = main(["explain", "2", "--messages", "300", "--seed", "7",
                     "--sample", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "message 2" in out
        assert "placement:" in out

    def test_explain_unknown_message_fails_cleanly(self, capsys):
        code = main(["explain", "999999", "--messages", "200",
                     "--sample", "0"])
        assert code == 1
        assert "was not seen" in capsys.readouterr().err

    def test_explain_from_audit_log_matches_replay(self, tmp_path, capsys):
        log = tmp_path / "audit.jsonl"
        code = main(["explain", "2", "--messages", "300", "--seed", "7",
                     "--sample", "0", "--audit-out", str(log)])
        live = capsys.readouterr().out
        assert code == 0
        code = main(["explain", "2", "--audit", str(log)])
        offline = capsys.readouterr().out
        assert code == 0
        assert offline == live

    def test_explain_missing_from_log_fails_cleanly(self, tmp_path,
                                                    capsys):
        log = tmp_path / "audit.jsonl"
        assert main(["top", "--once", "--messages", "200", "--sample",
                     "0", "--audit-out", str(log)]) == 0
        capsys.readouterr()
        code = main(["explain", "999999", "--audit", str(log)])
        assert code == 1
        assert "no decision record" in capsys.readouterr().err


class TestAuditCommands:
    @pytest.fixture
    def audit_log(self, tmp_path, capsys):
        log = tmp_path / "audit.jsonl"
        assert main(["top", "--once", "--messages", "400", "--seed", "7",
                     "--sample", "0", "--audit-out", str(log)]) == 0
        capsys.readouterr()
        return log

    def test_tail_shows_recent_decisions(self, audit_log, capsys):
        code = main(["audit", str(audit_log), "-n", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "audit — 10 of " in out
        assert "outcome" in out and "rung" in out

    def test_filter_by_outcome(self, audit_log, capsys):
        code = main(["audit", str(audit_log), "--outcome", "matched"])
        out = capsys.readouterr().out
        assert code == 0
        assert "matching decisions" in out
        assert "new-bundle" not in out

    def test_filter_no_match_fails_cleanly(self, audit_log, capsys):
        code = main(["audit", str(audit_log), "--msg", "987654"])
        assert code == 1
        assert "no decision records match" in capsys.readouterr().err

    def test_missing_log_fails_cleanly(self, tmp_path, capsys):
        code = main(["audit", str(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "no decision records" in capsys.readouterr().err


class TestTopQualityPanel:
    def test_generated_stream_shows_quality_table(self, capsys):
        code = main(["top", "--once", "--messages", "600", "--seed", "7",
                     "--sample", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clustering quality (vs ground truth)" in out
        assert "accuracy (accu)" in out
        assert "return (ret)" in out
        assert "ground-truth" in out


class TestTraceCommand:
    @pytest.fixture
    def trace_log(self, tmp_path):
        import json

        path = tmp_path / "fleet_trace.jsonl"
        documents = []
        for msg_id in (7, 8):
            documents.append({
                "trace_id": msg_id, "duration": 0.01,
                "tags": {"msg_id": msg_id, "outcome": "matched",
                         "shard": 1},
                "spans": [
                    {"name": "route", "start": 0.0, "duration": 0.002,
                     "tags": {"kind": "hop", "shard": 1}},
                    {"name": "service", "start": 0.002,
                     "duration": 0.007,
                     "tags": {"kind": "hop", "span_id": "1.1.3"}},
                    {"name": "placement", "start": 0.003,
                     "duration": 0.002, "tags": {"kind": "stage"}},
                    {"name": "ack_transit", "start": 0.009,
                     "duration": 0.001, "tags": {"kind": "hop"}},
                ]})
        path.write_text("\n".join(json.dumps(d) for d in documents) + "\n")
        return path

    def test_renders_timelines(self, trace_log, capsys):
        assert main(["trace", str(trace_log)]) == 0
        out = capsys.readouterr().out
        assert "trace 7" in out
        assert "trace 8" in out
        assert "service" in out
        assert "span_id=1.1.3" in out

    def test_msg_filter(self, trace_log, capsys):
        assert main(["trace", str(trace_log), "--msg", "8"]) == 0
        out = capsys.readouterr().out
        assert "trace 8" in out
        assert "trace 7" not in out

    def test_latest_n_limit(self, trace_log, capsys):
        assert main(["trace", str(trace_log), "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace 8" in out
        assert "1 earlier trace(s) not shown" in out

    def test_no_match_fails_cleanly(self, trace_log, capsys):
        assert main(["trace", str(trace_log), "--msg", "99"]) == 1
        assert "no msg_id 99" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1


class TestZeroMeansNone:
    """A count of 0 selects no records, as ``AuditLog.tail(0)`` does;
    a ``seq[-0:]`` slice would select all of them."""

    @pytest.mark.parametrize("spelling", [
        "audit -n 0", "trace -n 0",
        "AuditLog.filter(limit=0)"])
    def test_zero_selects_nothing(self, spelling, tmp_path, capsys):
        from repro.core.config import IndexerConfig
        from repro.core.engine import ProvenanceIndexer
        from repro.obs import AuditLog, Observability, Tracer
        from tests.conftest import make_message

        audit_log = tmp_path / "audit.jsonl"
        trace_log = tmp_path / "trace.jsonl"
        audit = AuditLog(sink=audit_log)
        tracer = Tracer(sink=trace_log)
        engine = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=15),
            obs=Observability(audit=audit, tracer=tracer))
        for msg_id in range(3):
            engine.ingest(make_message(msg_id, f"#quake update {msg_id}",
                                       hours=msg_id * 0.1))
        audit.close()
        tracer.close()
        if spelling == "AuditLog.filter(limit=0)":
            assert audit.filter(limit=0) == []
            return
        command, *rest = spelling.split()
        log = trace_log if command == "trace" else audit_log
        assert main([command, str(log), *rest]) == 0
        out = capsys.readouterr().out
        assert {"audit -n 0": "0 of 3 matching decisions",
                "trace -n 0": "3 earlier trace(s) not shown",
                }[spelling] in out


class TestProfileCommand:
    def test_profiles_a_replay_and_writes_folded(self, tmp_path, capsys):
        out_path = tmp_path / "replay.folded"
        code = main(["profile", "--messages", "600", "--hz", "200",
                     "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile —" in out
        assert "samples" in out
        assert out_path.exists()
        for line in out_path.read_text().splitlines():
            stack, _, count = line.rpartition(" ")
            assert int(count) > 0
            assert stack

    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.hz == 97
        assert args.out is None
        assert args.sample == 0.01


class TestServeObservabilityFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.trace_sample == 0.0
        assert args.trace_out is None
        assert args.profile_dir is None

    def test_closing_frame_rate_spans_the_run(self, capsys):
        import itertools
        import re
        from types import SimpleNamespace
        from unittest import mock

        import repro.cli as cli

        # The run's clock: 25 s between its start and its end.
        ticks = itertools.count(100.0, 25.0)
        clock = SimpleNamespace(perf_counter=lambda: next(ticks))
        with mock.patch.object(cli, "time", clock):
            code = main(["serve", "--once", "--messages", "300",
                         "--workers", "2", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        overall = float(re.search(r"([\d,.]+)/s overall", out)
                        .group(1).replace(",", ""))
        indexed, elapsed = map(float, re.search(
            r"indexed (\d+) of \d+ messages in ([\d.]+)s", out).groups())
        assert elapsed == 25.0
        assert 0.5 <= overall / (indexed / elapsed) <= 2.0


class TestAnatomy:
    def test_replay_prints_fingerprint_and_capacity(self, capsys):
        code = main(["anatomy", "--messages", "600", "--seed", "13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload fingerprint" in out
        assert "slab slice schedule" in out
        assert "memory attribution" in out
        assert "recommendations:" in out

    def test_fingerprints_identical_across_runs(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code = main(["anatomy", "--messages", "600", "--seed", "13",
                         "--interval", "200",
                         "--fingerprint-out", str(path)])
            assert code == 0
            capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # --interval 200 over 600 messages: 3 periodic + 1 final.
        assert len(paths[0].read_text().splitlines()) == 4

    def test_offline_report_mode(self, tmp_path, capsys):
        path = tmp_path / "fp.jsonl"
        main(["anatomy", "--messages", "600", "--seed", "13",
              "--fingerprint-out", str(path)])
        capsys.readouterr()
        code = main(["anatomy", "--report", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload fingerprint" in out
        assert "slab slice schedule" in out

    def test_diff_mode(self, tmp_path, capsys):
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        main(["anatomy", "--messages", "400", "--seed", "13",
              "--fingerprint-out", str(before)])
        main(["anatomy", "--messages", "800", "--seed", "13",
              "--fingerprint-out", str(after)])
        capsys.readouterr()
        code = main(["anatomy", "--diff", str(before), str(after)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fingerprint drift" in out
        assert "messages" in out

    def test_missing_fingerprint_file_fails_cleanly(self, tmp_path,
                                                    capsys):
        code = main(["anatomy", "--report", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "no fingerprints" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["anatomy"])
        assert args.sample_every == 8
        assert args.interval == 0
        assert args.fingerprint_out is None
        assert args.diff is None

    @pytest.mark.parametrize("flag", [["--surge", "3"], ["--sample", "1"],
                                      ["--audit-out", "a.jsonl"]])
    def test_rejects_flags_a_bare_engine_replay_ignores(self, flag,
                                                        capsys):
        # Anatomy replays a bare engine: no surge schedule, tracer or
        # audit log to configure.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["anatomy", "--messages", "200",
                                       *flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_top_shows_anatomy_panel(self, capsys):
        code = main(["top", "--once", "--messages", "600", "--seed", "7",
                     "--sample", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload anatomy" in out
