import json

import pytest

from spans import Span, SpanRecorder, layer_of, layer_self_seconds, self_times


def test_self_time_subtracts_children_once():
    spans = [
        Span(1, None, "run", 0.0, 10.0),
        Span(2, 1, "cache.fast.lru", 1.0, 4.0),
        Span(3, 2, "traces.get_trace", 2.0, 3.0),
        Span(4, 1, "cache.filter", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_as_their_union():
    spans = [
        Span(1, None, "run", 0.0, 10.0),
        Span(2, 1, "ml.lstm_epoch", 1.0, 6.0),
        Span(3, 1, "ml.lstm_eval", 4.0, 8.0),
        Span(4, 1, "ml.isvm_epoch", 9.0, 12.0),  # runs past its parent
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_layer_totals_group_by_prefix():
    spans = [
        Span(1, None, "run", 0.0, 10.0),
        Span(2, 1, "cache.fast.lru", 0.0, 2.0),
        Span(3, 1, "cache.fast.glider", 2.0, 5.0),
        Span(4, 1, "cache.filter", 5.0, 6.0),
    ]
    totals = layer_self_seconds(spans)
    assert totals == pytest.approx({None: 4.0, "cache.fast": 5.0, "cache.filter": 1.0})
    assert layer_of("cache.filter") == "cache.filter"
    assert layer_of("policies.ref.mpppb") == "policies.ref"
    assert layer_of("run") is None


def test_recorder_tracks_parents_and_writes_chrome_events(tmp_path):
    from repro.obs.trace import export_chrome

    recorder = SpanRecorder()
    with recorder.span("run"):
        with recorder.span("optgen.label") as args:
            args["items"] = 7
        with recorder.span("ml.train_lstm"):
            with recorder.span("ml.lstm_epoch"):
                pass
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["run"].parent is None
    assert by_name["optgen.label"].parent == by_name["run"].span_id
    assert by_name["ml.lstm_epoch"].parent == by_name["ml.train_lstm"].span_id
    assert by_name["optgen.label"].args == {"items": 7}

    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path, run_id="test")
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["name"] for e in events][0] == "run"
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert export_chrome(path, tmp_path / "out.json") == 4


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder(enabled=False)
    with recorder.span("run") as args:
        args["items"] = 1
    assert recorder.spans == []
