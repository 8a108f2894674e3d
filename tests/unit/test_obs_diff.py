"""Units for differential observability (repro.obs.diff): config
validation, the digest ring, trail (de)serialisation, chain bisection,
result deltas, and the DiffServer."""

import json
import math
import urllib.request
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, DiffError
from repro.obs.diff import (
    TRAIL_VERSION,
    DigestConfig,
    DigestRecorder,
    DigestStore,
    DigestTrail,
    DivergenceReport,
    FieldDivergence,
    first_divergent_bracket,
    read_trail,
    render_result_delta,
    result_delta,
    write_trail,
)
from repro.obs.probe import snapshot_fields


def make_trail(ticks, chains=None, label="t", stride=1, captures=()):
    """A hand-built trail whose rows are (tick, ts, chain) triples."""
    chains = chains or [f"c{i:02d}" for i in range(ticks)]
    rows = [(i * stride, float(i * stride * 100), chains[i])
            for i in range(ticks)]
    return DigestTrail(label=label, epoch_cycles=100.0, fields=("ts",),
                       ticks=(ticks - 1) * stride + 1 if ticks else 0,
                       stride=stride, chain_tip=chains[-1] if chains else "",
                       rows=rows, captures=list(captures))


class TestDigestConfig:
    def test_defaults_valid(self):
        config = DigestConfig()
        assert config.epoch_cycles is None
        assert config.capacity == 4096

    @pytest.mark.parametrize("kwargs", [
        {"epoch_cycles": 0.0},
        {"epoch_cycles": -5.0},
        {"capacity": 7},          # odd
        {"capacity": 6},          # < 8
        {"capture_range": (-1, 4)},
        {"capture_range": (5, 2)},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            DigestConfig(**kwargs)

    @pytest.mark.parametrize("cycles", [math.nan, math.inf, 1e-12, 0.5])
    def test_rejects_periods_that_cannot_advance_the_clock(self, cycles):
        with pytest.raises(ConfigurationError, match="epoch_cycles"):
            DigestConfig(epoch_cycles=cycles)

    @pytest.mark.parametrize("cycles", ["nan", "inf", "1e-12"])
    def test_cli_names_the_bad_period(self, tmp_path, capsys, cycles):
        """A bad period fails before any run, naming the field: NaN
        would otherwise diff a single epoch and exit 0, and 1e-12 would
        never finish."""
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        assert main(["generate", "synthetic-st", "-o", str(path),
                     "--duration-ms", "1", "--seed", "7"]) == 0
        capsys.readouterr()
        assert main(["diff", str(path), "--technique", "dma-ta",
                     "--epoch-cycles", cycles]) != 0
        assert "epoch_cycles" in capsys.readouterr().err


class TestDigestStore:
    def test_retains_everything_below_capacity(self):
        store = DigestStore(capacity=8)
        for i in range(8):
            assert store.append(float(i), f"c{i}")
        assert store.stride == 1 and store.dropped == 0
        assert [row[0] for row in store.rows()] == list(range(8))

    def test_compaction_doubles_stride_and_keeps_alignment(self):
        store = DigestStore(capacity=8)
        for i in range(64):
            store.append(float(i), f"c{i}")
        # Row i always holds tick i * stride; stride is a power of two.
        assert store.stride == 8
        ticks = [row[0] for row in store.rows()]
        assert ticks == [i * store.stride for i in range(len(ticks))]
        assert store.ticks == 64
        # dropped counts stride-rejected offers only; compaction evicts
        # already-retained rows without recounting them.
        assert store.dropped + len(ticks) <= store.ticks
        assert store.dropped > 0

    def test_equal_length_runs_retain_identical_tick_subsets(self):
        a, b = DigestStore(capacity=8), DigestStore(capacity=8)
        for i in range(100):
            a.append(float(i), f"a{i}")
            b.append(float(i), f"b{i}")
        assert [r[0] for r in a.rows()] == [r[0] for r in b.rows()]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            DigestStore(capacity=9)


class TestRecorderMisuse:
    def test_bind_is_single_use(self):
        recorder = DigestRecorder(DigestConfig())

        class FakeFluid:
            name = "fluid"

            class controller:
                @staticmethod
                def epoch_cycles():
                    return 1000.0

                @staticmethod
                def pending_count():
                    return 0

            class config:
                class memory:
                    num_chips = 0

                class buses:
                    count = 0
            head_delay_total = 0.0
            extra_service_total = 0.0
            migrations = 0

        recorder.bind(FakeFluid())
        with pytest.raises(DiffError):
            recorder.bind(FakeFluid())


class TestDigestPayload:
    """The chain hashes each snapshot's bit pattern."""

    ENGINE = SimpleNamespace(
        name="fluid",
        controller=SimpleNamespace(epoch_cycles=lambda: 1000.0),
        config=SimpleNamespace(memory=SimpleNamespace(num_chips=1),
                               buses=SimpleNamespace(count=0)))

    def chain_tip(self, snapshot):
        recorder = DigestRecorder()
        recorder.bind(self.ENGINE)
        recorder.sample(tuple(snapshot))
        return recorder.trail().chain_tip

    @pytest.mark.parametrize("a, b", [
        (0.25, math.nextafter(0.25, 1.0)),
        (0.0, -0.0),
    ], ids=("one-ulp", "signed-zero"))
    def test_chip_bucket_bits_change_the_tip(self, a, b):
        fields = snapshot_fields(self.ENGINE.config)
        slot = fields.index("chip0.idle_dma")
        snapshot = [1.0] * len(fields)
        other = list(snapshot)
        snapshot[slot], other[slot] = a, b
        assert self.chain_tip(snapshot) != self.chain_tip(other)


class TestTrailRoundTrip:
    def test_json_round_trip(self, tmp_path):
        trail = make_trail(5, label="fluid/dma-ta", stride=2)
        path = write_trail(trail, tmp_path / "trail.json")
        loaded = read_trail(path)
        assert loaded.label == trail.label
        assert loaded.chain_tip == trail.chain_tip
        assert loaded.rows == trail.rows
        assert loaded.stride == trail.stride

    @pytest.mark.parametrize("mutate", [
        lambda obj: obj.update(version=99),
        lambda obj: obj.update(rows="nope"),
        lambda obj: obj["rows"].append([1, 2]),        # not a triple
        lambda obj: obj["rows"].append(["x", 0.0, 3]),  # bad types
        lambda obj: obj.pop("epoch_cycles"),
        lambda obj: obj.update(version=1),  # repr-payload chains
    ])
    def test_malformed_trail_raises_differror(self, tmp_path, mutate):
        obj = make_trail(3).as_dict()
        mutate(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DiffError) as refused:
            read_trail(path)
        if obj["version"] != TRAIL_VERSION:
            assert f"version {obj['version']} " in str(refused.value)
            assert f"version {TRAIL_VERSION}" in str(refused.value)

    def test_not_json_raises_differror(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DiffError):
            read_trail(path)


class TestFirstDivergentBracket:
    def test_identical_trails_return_none(self):
        assert first_divergent_bracket(make_trail(10), make_trail(10)) is None

    def test_divergence_mid_run_brackets_the_flip(self):
        chains_b = [f"c{i:02d}" if i < 6 else f"x{i:02d}" for i in range(10)]
        bracket = first_divergent_bracket(
            make_trail(10), make_trail(10, chains=chains_b))
        assert bracket is not None
        lo, hi = bracket
        assert lo <= 6 <= hi  # the true flip tick lies inside the bracket

    def test_divergence_at_tick_zero(self):
        chains_b = [f"x{i:02d}" for i in range(4)]
        bracket = first_divergent_bracket(
            make_trail(4), make_trail(4, chains=chains_b))
        assert bracket is not None and bracket[1] == 0

    def test_length_mismatch_is_a_divergence(self):
        assert first_divergent_bracket(make_trail(10), make_trail(7)) \
            is not None

    def test_strided_trails_still_bracket(self):
        # Simulate compaction on one side: same chain values at the
        # retained ticks, different stride metadata is not allowed —
        # equal-length runs share strides, so build both at stride 2.
        chains_b = [f"c{i:02d}" if i < 3 else f"x{i:02d}" for i in range(5)]
        bracket = first_divergent_bracket(
            make_trail(5, stride=2), make_trail(5, chains=chains_b,
                                                stride=2))
        assert bracket is not None
        lo, hi = bracket
        assert lo < 3 * 2 + 1 and hi >= 3 * 2 - 2


class TestResultDelta:
    def test_equal_objects_yield_no_lines(self):
        assert result_delta({"a": 1, "b": [1, 2]},
                            {"a": 1, "b": [1, 2]}) == []

    def test_names_the_disagreeing_path(self):
        lines = result_delta({"energy": {"low_power": 1.0}},
                             {"energy": {"low_power": 2.0}})
        assert len(lines) == 1
        assert "low_power" in lines[0]
        assert "a=1.0" in lines[0] and "b=2.0" in lines[0]

    def test_limit_caps_output(self):
        a = {str(i): i for i in range(50)}
        b = {str(i): i + 1 for i in range(50)}
        assert len(result_delta(a, b, limit=5)) <= 6

    def test_render_names_both_labels(self):
        text = render_result_delta({"x": 1}, {"x": 2},
                                   label_a="fleet", label_b="serial")
        assert "fleet" in text and "serial" in text and "x" in text


class TestDivergenceReportShape:
    def make_report(self, identical=False):
        divergence = None if identical else FieldDivergence(
            tick=7, ts_a=16000.0, ts_b=16000.0,
            name="degradation_cycles", value_a=0.0, value_b=1.0)
        return DivergenceReport(
            identical=identical, label_a="A", label_b="B",
            ticks_a=100, ticks_b=100, epoch_cycles=2000.0,
            mode="identical" if identical else "field",
            bracket=None if identical else (6, 7),
            divergence=divergence, chain_tip="ab" * 16,
            causes_a={}, causes_b={})

    def test_summary_line_is_greppable(self):
        line = self.make_report().summary_line()
        assert line.startswith("diff.divergence: epoch=7 ")
        assert "field=degradation_cycles" in line

    def test_identical_summary_line(self):
        line = self.make_report(identical=True).summary_line()
        assert line.startswith("diff.identical: ")

    def test_as_dict_round_trips_epoch(self):
        report = self.make_report()
        assert report.epoch == 7
        assert report.as_dict()["epoch"] == 7


class TestDiffServer:
    def test_serves_report_and_json(self):
        from repro.obs.serve import DiffServer

        report = TestDivergenceReportShape().make_report()
        server = DiffServer(report, port=0)
        server.start()
        try:
            with urllib.request.urlopen(server.url, timeout=5) as response:
                page = response.read().decode("utf-8")
            assert "DIVERGED" in page
            with urllib.request.urlopen(server.url + "report.json",
                                        timeout=5) as response:
                obj = json.loads(response.read().decode("utf-8"))
            assert obj["epoch"] == 7
        finally:
            server.stop()

    def test_page_escapes_title(self):
        # The CLI titles the page with the trace name, read from the
        # trace file.
        from repro.obs.serve import DiffServer

        report = TestDivergenceReportShape().make_report(identical=True)
        server = DiffServer(report, port=0, title="<script>x</script>")
        server.start()
        try:
            with urllib.request.urlopen(server.url, timeout=5) as response:
                page = response.read().decode("utf-8")
        finally:
            server.stop()
        assert "<script>x</script>" not in page
        assert "&lt;script&gt;x&lt;/script&gt;" in page
        assert "identical" in page
