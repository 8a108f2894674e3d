"""Units for the command-line interface."""

import json
import logging
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.obs.export import validate_chrome_trace
from repro.traces.io import read_trace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    code = main(["generate", "synthetic-st", "-o", str(path),
                 "--duration-ms", "2", "--seed", "7"])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro" in capsys.readouterr().out

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "mystery", "-o", "x"])


class TestGenerate:
    def test_writes_valid_trace(self, trace_file, capsys):
        trace = read_trace(trace_file)
        assert trace.name == "Synthetic-St"
        assert len(trace.transfers) > 50

    def test_all_kinds(self, tmp_path):
        for kind in ("oltp-st", "oltp-db", "synthetic-db"):
            path = tmp_path / f"{kind}.jsonl"
            assert main(["generate", kind, "-o", str(path),
                         "--duration-ms", "1"]) == 0
            assert path.exists()


class TestCharacterize(object):
    def test_prints_summary(self, trace_file, capsys):
        assert main(["characterize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "transfer rate" in out
        assert "top-20% access share" in out

    def test_cdf_flag(self, trace_file, capsys):
        assert main(["characterize", str(trace_file), "--cdf"]) == 0
        assert "popularity CDF" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["characterize", "/nonexistent/trace.jsonl"]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_baseline(self, trace_file, capsys):
        assert main(["simulate", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "technique=baseline" in out
        assert "idle_dma" in out

    def test_dma_ta_with_cp_limit(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--technique", "dma-ta",
                     "--cp-limit", "0.1"]) == 0
        assert "guarantee" in capsys.readouterr().out

    def test_mu_and_cp_conflict(self, trace_file, capsys):
        code = main(["simulate", str(trace_file), "--technique", "dma-ta",
                     "--cp-limit", "0.1", "--mu", "5"])
        assert code == 2


class TestCompareAndSweep:
    def test_compare(self, trace_file, capsys):
        assert main(["compare", str(trace_file), "--cp-limit", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "DMA-TA-PL" in out
        assert "savings" in out

    def test_sweep(self, trace_file, capsys):
        assert main(["sweep", str(trace_file), "--cp-limits", "0.05,0.2",
                     "--technique", "dma-ta"]) == 0
        out = capsys.readouterr().out
        assert "0.05" in out and "0.2" in out

    def test_sweep_bad_list(self, trace_file, capsys):
        assert main(["sweep", str(trace_file),
                     "--cp-limits", "abc"]) == 2

    def test_sweep_bad_jobs(self, trace_file, capsys):
        assert main(["sweep", str(trace_file), "--jobs", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_parallel_jobs(self, trace_file, capsys):
        assert main(["sweep", str(trace_file), "--cp-limits", "0.05,0.2",
                     "--technique", "dma-ta", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.05" in out and "0.2" in out
        assert "workers:" in out and "jobs computed" in out

    def test_sweep_cache_cold_then_warm(self, trace_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["sweep", str(trace_file), "--cp-limits", "0.05",
                "--technique", "dma-ta", "--cache",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 hits" in cold and "2 stores" in cold
        assert "0 evictions" in cold and "0 corrupt" in cold
        assert cache_dir.is_dir()
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 hits" in warm and "0 stores" in warm
        # Identical numbers either way (all but the cache-stats line).
        assert cold.splitlines()[:2] == warm.splitlines()[:2]

    def test_sweep_no_cache_writes_nothing(self, trace_file, tmp_path,
                                           capsys, monkeypatch):
        from repro.exec.cache import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        assert main(["sweep", str(trace_file), "--cp-limits", "0.05",
                     "--technique", "dma-ta", "--no-cache"]) == 0
        assert not (tmp_path / "cache").exists()
        assert "cache:" not in capsys.readouterr().out


class TestTraceVerb:
    def test_writes_valid_chrome_trace(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", str(trace_file), "--mu", "50",
                     "--out", str(out_path)]) == 0
        obj = json.loads(out_path.read_text())
        assert validate_chrome_trace(obj) == []
        assert obj["otherData"]["label"] == "Synthetic-St"
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "ui.perfetto.dev" in out

    def test_precise_engine(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", str(trace_file), "--engine", "precise",
                     "--mu", "50", "--out", str(out_path)]) == 0
        assert validate_chrome_trace(
            json.loads(out_path.read_text())) == []

    def test_eventless_run_warns_and_skips_export(
            self, trace_file, tmp_path, capsys, monkeypatch):
        import repro.exec.jobs as jobs

        real = jobs.simulate

        def muted(trace, **kwargs):
            kwargs.pop("tracer", None)
            return real(trace, **kwargs)

        monkeypatch.setattr(jobs, "simulate", muted)
        out_path = tmp_path / "trace.json"
        assert main(["trace", str(trace_file),
                     "--out", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert "no trace events" in captured.err
        assert not out_path.exists()


class TestAuditVerb:
    def test_strict_clean_run_exits_zero(self, trace_file, tmp_path,
                                         capsys):
        report_path = tmp_path / "audit.json"
        assert main(["audit", str(trace_file), "--technique", "dma-ta",
                     "--mu", "2.0", "--strict",
                     "--out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "audit: OK" in out
        assert "latency waterfall" in out
        assert "energy ledger" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["energy"]["checked"] is True

    def test_strict_injected_undercharge_exits_nonzero(
            self, trace_file, capsys):
        code = main(["audit", str(trace_file), "--technique", "dma-ta",
                     "--mu", "50", "--strict",
                     "--inject-undercharge", "0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "slack-undercharge" in err

    def test_inject_requires_slack_account(self, trace_file, capsys):
        assert main(["audit", str(trace_file), "--technique", "baseline",
                     "--inject-undercharge", "0.5"]) == 2
        assert "DMA-TA" in capsys.readouterr().err

    def test_trace_out_includes_waterfall_spans(self, trace_file,
                                                tmp_path, capsys):
        trace_out = tmp_path / "audit_trace.json"
        assert main(["audit", str(trace_file), "--technique", "dma-ta",
                     "--mu", "2.0", "--trace-out", str(trace_out)]) == 0
        obj = json.loads(trace_out.read_text())
        assert validate_chrome_trace(obj) == []
        names = {e.get("name") for e in obj["traceEvents"]}
        assert "slack" in names  # the live slack-balance counter track

    def test_precise_engine_audits(self, trace_file, capsys):
        assert main(["audit", str(trace_file), "--engine", "precise",
                     "--technique", "dma-ta", "--mu", "2.0",
                     "--strict"]) == 0
        assert "audit: OK" in capsys.readouterr().out


class TestStatsVerb:
    def test_prints_metrics_report(self, trace_file, capsys):
        assert main(["stats", str(trace_file), "--technique", "dma-ta",
                     "--mu", "50"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "sim.transfers" in out
        assert "per-chip state residency" in out

    def test_baseline_has_transitions(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        assert "power transitions:" in capsys.readouterr().out


class TestLogLevel:
    def test_flag_enables_debug_diagnostics(self, tmp_path, capsys):
        # basicConfig only installs a handler on a bare root logger, so
        # clear pytest's capture handlers for the duration of the call.
        root = logging.getLogger()
        level, handlers = root.level, list(root.handlers)
        for handler in handlers:
            root.removeHandler(handler)
        try:
            path = tmp_path / "t.jsonl"
            assert main(["--log-level", "debug", "generate", "synthetic-st",
                         "-o", str(path), "--duration-ms", "1"]) == 0
            err = capsys.readouterr().err
            assert "DEBUG repro.traces.synthetic" in err
        finally:
            for handler in list(root.handlers):
                root.removeHandler(handler)
            for handler in handlers:
                root.addHandler(handler)
            root.setLevel(level)

    def test_rejects_unknown_level(self, capsys):
        with pytest.raises(SystemExit):
            main(["--log-level", "loud", "generate", "synthetic-st",
                  "-o", "x"])

    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "warning")
        from repro.cli import build_parser as rebuild

        args = rebuild().parse_args(["generate", "synthetic-st", "-o", "x"])
        assert args.log_level == "warning"


class TestLogFormat:
    def _clean_root(self):
        root = logging.getLogger()
        state = (root.level, list(root.handlers))
        for handler in state[1]:
            root.removeHandler(handler)
        return root, state

    def _restore_root(self, root, state):
        level, handlers = state
        for handler in list(root.handlers):
            root.removeHandler(handler)
        for handler in handlers:
            root.addHandler(handler)
        root.setLevel(level)

    def test_json_formatter_shape(self):
        from repro.cli import JsonLogFormatter

        record = logging.LogRecord("repro.x", logging.WARNING, "f.py", 1,
                                   "bad %s", ("thing",), None)
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["level"] == "warning"
        assert payload["logger"] == "repro.x"
        assert payload["message"] == "bad thing"
        assert isinstance(payload["ts"], float)
        assert "exc" not in payload

    def test_json_formatter_includes_traceback(self):
        import sys as _sys

        from repro.cli import JsonLogFormatter

        try:
            raise ValueError("boom")
        except ValueError:
            record = logging.LogRecord("repro.x", logging.ERROR, "f.py", 1,
                                       "failed", (), _sys.exc_info())
        payload = json.loads(JsonLogFormatter().format(record))
        assert "ValueError: boom" in payload["exc"]

    def test_json_flag_emits_json_lines(self, tmp_path, capsys):
        root, state = self._clean_root()
        try:
            path = tmp_path / "t.jsonl"
            assert main(["--log-level", "debug", "--log-format", "json",
                         "generate", "synthetic-st", "-o", str(path),
                         "--duration-ms", "1"]) == 0
            err = capsys.readouterr().err
            lines = [json.loads(line) for line in err.splitlines()
                     if line.startswith("{")]
            assert lines, f"no JSON log lines in {err!r}"
            assert any(entry["logger"].startswith("repro.")
                       for entry in lines)
        finally:
            self._restore_root(root, state)

    def test_json_implies_info_level(self, tmp_path, capsys):
        root, state = self._clean_root()
        try:
            path = tmp_path / "t.jsonl"
            assert main(["--log-format", "json", "generate",
                         "synthetic-st", "-o", str(path),
                         "--duration-ms", "1"]) == 0
            assert root.level == logging.INFO
        finally:
            self._restore_root(root, state)

    def test_invalid_env_format_falls_back_to_text(self, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "xml")
        path = tmp_path / "t.jsonl"
        assert main(["generate", "synthetic-st", "-o", str(path),
                     "--duration-ms", "1"]) == 0
        assert "unknown log format 'xml'" in capsys.readouterr().err

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        from repro.cli import build_parser as rebuild

        args = rebuild().parse_args(["generate", "synthetic-st", "-o", "x"])
        assert args.log_format == "json"

    def test_rejects_unknown_format_flag(self):
        with pytest.raises(SystemExit):
            main(["--log-format", "xml", "generate", "synthetic-st",
                  "-o", "x"])


class TestStatsAuditHealth:
    def test_clean_run_reports_ok(self, trace_file, capsys):
        assert main(["stats", str(trace_file), "--technique", "dma-ta",
                     "--mu", "50"]) == 0
        out = capsys.readouterr().out
        assert "audit: ok (0 violations)" in out

    def test_violations_counted_by_kind(self, capsys):
        from types import SimpleNamespace

        from repro.cli import _audit_health_line

        report = SimpleNamespace(ok=False, violations=[
            SimpleNamespace(kind="slack-undercharge"),
            SimpleNamespace(kind="slack-undercharge"),
            SimpleNamespace(kind="energy-ledger"),
        ])
        line = _audit_health_line(report)
        assert "3 violation(s)" in line
        assert "slack-undercharge: 2" in line
        assert "energy-ledger: 1" in line
        assert "repro audit" in line


class TestWatchParser:
    def test_defaults(self):
        args = build_parser().parse_args(["watch", "t.jsonl"])
        assert args.technique == "dma-ta-pl"
        assert args.serve_port == 8765
        assert args.linger_s == 10.0
        assert not args.no_browser
        assert args.inject_spike == 0.0

    def test_all_flags_parse(self):
        args = build_parser().parse_args(
            ["watch", "t.jsonl", "--engine", "precise", "--cp-limit",
             "0.1", "--sample-cycles", "500", "--capacity", "128",
             "--serve-port", "0", "--no-browser", "--port-file", "p",
             "--linger-s", "0", "--telemetry-out", "o.jsonl",
             "--inject-spike", "1e6", "--inject-spike-at", "0.75"])
        assert args.engine == "precise"
        assert args.capacity == 128
        assert args.inject_spike == 1e6
        assert args.inject_spike_at == 0.75


class TestServeLifecycle:
    """A serving verb stops its server, and whatever else it started,
    on every exit path: here the --port-file cannot be written."""

    @pytest.mark.parametrize("argv, code", [
        (["watch", "--technique", "dma-ta", "--mu", "2.0",
          "--no-browser"], 2),
        (["sweep", "--technique", "dma-ta", "--cp-limits", "0.05",
          "--no-cache", "--watch", "--no-browser"], 2),
        (["diff", "--technique", "dma-ta", "--serve"], 1),
    ], ids=["watch", "sweep", "diff"])
    def test_unwritable_port_file_leaves_no_thread(self, trace_file,
                                                   tmp_path, argv, code):
        before = set(threading.enumerate())
        port_file = tmp_path / "missing" / "port"
        assert main([argv[0], str(trace_file), *argv[1:],
                     "--serve-port", "0", "--linger-s", "0",
                     "--port-file", str(port_file)]) == code
        for _ in range(100):  # give a stopped thread time to exit
            leftover = [thread.name for thread in threading.enumerate()
                        if thread not in before]
            if not leftover:
                break
            time.sleep(0.02)
        assert leftover == []


class TestCalibrate:
    def test_prints_mu(self, trace_file, capsys):
        assert main(["calibrate", str(trace_file),
                     "--cp-limit", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "mu" in out
        assert "requests per client" in out


class TestStatsHistograms:
    def test_digest_printed(self, trace_file, capsys):
        assert main(["stats", str(trace_file), "--technique", "dma-ta",
                     "--mu", "50", "--histogram", "ta.batch_size"]) == 0
        out = capsys.readouterr().out
        assert "histogram ta.batch_size:" in out
        assert "p99" in out

    def test_missing_histogram_warns_not_tracebacks(self, trace_file,
                                                    capsys):
        # ta.batch_size only exists when a DMA-TA technique runs; the
        # baseline must warn and exit 0, never traceback.
        assert main(["stats", str(trace_file), "--technique", "baseline",
                     "--histogram", "ta.batch_size"]) == 0
        captured = capsys.readouterr()
        assert "ta.batch_size" in captured.err
        assert "have:" in captured.err
        assert "counters:" in captured.out  # rest of the report intact


class TestBenchVerbs:
    @pytest.fixture
    def results(self, tmp_path):
        """A results dir with one record, plus an empty baseline root."""
        from repro.bench.record import BenchRecord, Metric, Phase
        from repro.bench.trajectory import write_json_atomic

        results_dir = tmp_path / "results"

        def write(wall=1.0, value=0.35):
            record = BenchRecord(
                name="fig5_savings", figure="fig5",
                created="2026-08-06T00:00:00+00:00",
                meta={"bench_ms": 25.0, "jobs": 1},
                metrics=[Metric(name="dma-ta-pl/cp=0.1", value=value,
                                unit="fraction", expected=0.386)],
                phases=[Phase(name="sweep", wall_s=wall)],
            )
            write_json_atomic(results_dir / "fig5_savings.json",
                              record.to_dict())

        write()
        return tmp_path, results_dir, write

    def _args(self, results):
        tmp_path, results_dir, _ = results
        return ["--results-dir", str(results_dir), "--root", str(tmp_path)]

    def test_compare_without_baseline_warns_but_passes(self, results,
                                                       capsys):
        assert main(["bench", "compare", *self._args(results),
                     "--fail-on-regression"]) == 0
        captured = capsys.readouterr()
        assert "no BENCH_*.json trajectories" in captured.err
        assert "without baseline" in captured.out

    def test_update_baseline_then_unchanged_compare(self, results, capsys):
        tmp_path, _, _ = results
        assert main(["bench", "update-baseline", *self._args(results)]) == 0
        assert (tmp_path / "BENCH_fig5.json").exists()
        assert main(["bench", "compare", *self._args(results),
                     "--fail-on-regression"]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out

    def test_wall_regression_fails_the_gate(self, results, capsys):
        _, _, write = results
        assert main(["bench", "update-baseline", *self._args(results)]) == 0
        write(wall=3.0)  # inject a synthetic 3x wall-time regression
        assert main(["bench", "compare", *self._args(results)]) == 0
        assert main(["bench", "compare", *self._args(results),
                     "--fail-on-regression"]) == 1
        captured = capsys.readouterr()
        assert "wall_s" in captured.out
        assert "regression(s)" in captured.err

    def test_fidelity_regression_fails_the_gate(self, results, capsys):
        _, _, write = results
        assert main(["bench", "update-baseline", *self._args(results)]) == 0
        write(value=0.25)  # drift away from the paper's 0.386
        assert main(["bench", "compare", *self._args(results),
                     "--fail-on-regression"]) == 1
        assert "fidelity:dma-ta-pl/cp=0.1" in capsys.readouterr().out

    def test_verbose_itemises_everything(self, results, capsys):
        assert main(["bench", "update-baseline", *self._args(results)]) == 0
        assert main(["bench", "compare", *self._args(results), "-v"]) == 0
        out = capsys.readouterr().out
        assert "= [fig5]" in out

    def test_update_baseline_figure_filter(self, results, capsys):
        with pytest.raises(SystemExit):
            # argparse: --figure needs a value
            main(["bench", "update-baseline", "--figure"])
        assert main(["bench", "update-baseline", *self._args(results),
                     "--figure", "nope"]) == 2
        assert "no current records match" in capsys.readouterr().err

    def test_missing_results_dir_is_an_error(self, tmp_path, capsys):
        assert main(["bench", "compare", "--results-dir",
                     str(tmp_path / "void"), "--root", str(tmp_path)]) == 2
        assert "repro bench run" in capsys.readouterr().err

    def test_corrupt_record_rejected_clearly(self, results, capsys):
        tmp_path, results_dir, _ = results
        (results_dir / "fig5_savings.json").write_text(
            '{"schema": 99}', encoding="utf-8")
        assert main(["bench", "compare", *self._args(results)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_report_writes_selfcontained_html(self, results, capsys):
        tmp_path, _, _ = results
        assert main(["bench", "update-baseline", *self._args(results)]) == 0
        out_path = tmp_path / "report.html"
        assert main(["bench", "report", *self._args(results),
                     "-o", str(out_path)]) == 0
        html = out_path.read_text(encoding="utf-8")
        assert "<svg" in html          # sparklines inline
        assert "fig5_savings" in html
        assert "<script src" not in html  # no external assets

    def test_report_without_anything_is_an_error(self, tmp_path, capsys):
        assert main(["bench", "report", "--results-dir",
                     str(tmp_path / "void"), "--root", str(tmp_path),
                     "-o", str(tmp_path / "r.html")]) == 2
        assert "nothing to report" in capsys.readouterr().err

    def test_run_rejects_missing_benchmarks_dir(self, tmp_path, capsys):
        assert main(["bench", "run", "--benchmarks-dir",
                     str(tmp_path / "void")]) == 2
        assert "benchmarks directory" in capsys.readouterr().err

    def test_run_rejects_unknown_figure(self, capsys, monkeypatch,
                                        tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_fig5_x.py").write_text("", encoding="utf-8")
        assert main(["bench", "run", "--benchmarks-dir", str(bench_dir),
                     "--figure", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err
