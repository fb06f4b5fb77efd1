"""Branch coverage for the two least-covered modules:
``repro.experiments.report`` and ``repro.core.trace`` (strict-mode
tag fallback, inference-timeline export).
"""

from __future__ import annotations

import json

import pytest

from repro.core.design_points import design_point
from repro.core.optable import OpTable, schedule_ops
from repro.core.schedule import build_inference_ops, plan_inference
from repro.core.timeline import EngineKind
from repro.core.trace import (TAG_CATEGORIES, engine_utilization,
                              register_tag_category, tag_category,
                              to_chrome_trace, to_records)
from repro.dnn.registry import build_network
from repro.experiments.report import (format_bars, format_series,
                                      format_stacked_bars, format_table,
                                      percent)
from repro.training.parallel import ParallelStrategy


class TestFormatTable:
    def test_floats_render_three_decimals(self):
        text = format_table(["x"], [[1.23456]])
        assert "1.235" in text

    def test_title_and_separator(self):
        text = format_table(["a", "bb"], [["1", "2"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert set(lines[2]) <= {"-", "+"}

    def test_untitled_table_has_no_title_line(self):
        text = format_table(["a"], [["1"]])
        assert text.splitlines()[0].startswith("a")

    def test_column_width_tracks_longest_cell(self):
        text = format_table(["a"], [["wide-cell"]])
        header = text.splitlines()[0]
        assert len(header) == len("wide-cell")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestFormatSeries:
    def test_pairs_rendered(self):
        assert format_series("s", [1, 2], [0.5, 1.5]) \
            == "s: 1=0.500, 2=1.500"

    def test_empty_series(self):
        assert format_series("s", [], []) == "s: "


class TestPercent:
    def test_rounding(self):
        assert percent(0.8765) == "87.6%"  # 87.65 floats just below
        assert percent(0.0) == "0.0%"
        assert percent(1.0) == "100.0%"


class TestFormatBars:
    def test_peak_scales_to_width(self):
        text = format_bars(["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_all_zero_values_draw_no_bars(self):
        text = format_bars(["a"], [0.0])
        assert "#" not in text

    def test_title_line(self):
        assert format_bars(["a"], [1.0], title="T").splitlines()[0] \
            == "T"

    def test_empty_inputs_allowed(self):
        assert format_bars([], []) == ""

    def test_validation(self):
        with pytest.raises(ValueError):
            format_bars(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            format_bars(["a"], [1.0], width=0)
        with pytest.raises(ValueError):
            format_bars(["a"], [-1.0])


class TestFormatStackedBars:
    def test_segments_use_distinct_characters(self):
        text = format_stacked_bars(["a"], [[1.0, 1.0, 2.0]], width=8)
        bar = text.splitlines()[0]
        assert bar.count("#") == 2
        assert bar.count("=") == 2
        assert bar.count("~") == 4

    def test_zero_peak_draws_nothing(self):
        text = format_stacked_bars(["a"], [[0.0, 0.0]])
        assert "#" not in text and "=" not in text

    def test_validation(self):
        with pytest.raises(ValueError):
            format_stacked_bars(["a", "b"], [[1.0]])
        with pytest.raises(ValueError):
            format_stacked_bars(["a"], [[1.0, 1.0, 1.0, 1.0]])  # chars
        with pytest.raises(ValueError):
            format_stacked_bars(["a"], [[-1.0, 0.0]])


class TestStrictTagFallback:
    def test_unknown_prefix_falls_back_to_other(self):
        assert tag_category("quantum-leap:x") == "other"
        assert tag_category("no-colon-tag") == "other"

    def test_strict_mode_raises_with_registration_hint(self):
        with pytest.raises(KeyError) as excinfo:
            tag_category("quantum-leap:x", strict=True)
        assert "register_tag_category" in str(excinfo.value)
        assert "quantum-leap" in str(excinfo.value)

    def test_strict_mode_passes_registered_prefixes(self):
        for prefix, category in TAG_CATEGORIES.items():
            assert tag_category(f"{prefix}:probe", strict=True) \
                == category

    def test_wfetch_registered_as_migration(self):
        assert tag_category("wfetch:b0_qkv", strict=True) == "migration"

    def test_registration_updates_strict_lookups(self):
        register_tag_category("zz-custom", "compute")
        try:
            assert tag_category("zz-custom:op", strict=True) == "compute"
        finally:
            TAG_CATEGORIES.pop("zz-custom")

    def test_register_validation(self):
        with pytest.raises(ValueError):
            register_tag_category("", "compute")
        with pytest.raises(ValueError):
            register_tag_category("a:b", "compute")
        with pytest.raises(ValueError):
            register_tag_category("fine", "")


class TestInferenceTimelineExport:
    @pytest.fixture(scope="class")
    def timeline(self):
        config = design_point("DC-DLA")
        plan = plan_inference(build_network("AlexNet"), config, 32,
                              ParallelStrategy.DATA)
        return schedule_ops(build_inference_ops(plan, config))

    def test_every_tag_categorizes_strictly(self, timeline):
        for scheduled in timeline.scheduled:
            tag_category(scheduled.op.tag, strict=True)

    def test_records_include_weight_fetches(self, timeline):
        records = to_records(timeline)
        assert any(r["tag"].startswith("wfetch:") for r in records)
        starts = [r["start"] for r in records]
        assert starts == sorted(starts)

    def test_chrome_trace_files_fetches_under_migration(self, timeline):
        payload = json.loads(to_chrome_trace(timeline))
        cats = {e["cat"] for e in payload["traceEvents"]
                if e["name"].startswith("wfetch:")}
        assert cats == {"migration"}

    def test_utilization_shows_dma_pressure(self, timeline):
        util = engine_utilization(timeline)
        assert 0.0 < util["dma-in"] <= 1.0
        assert util["dma-out"] == 0.0  # inference pushes nothing back

    def test_single_op_utilization_is_full(self):
        ops = OpTable()
        ops.add(EngineKind.COMPUTE, 1.0, [], tag="fwd:x")
        util = engine_utilization(schedule_ops(ops))
        assert util["compute"] == 1.0
        assert util["comm"] == 0.0
