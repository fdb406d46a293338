from spans import self_times, span_totals, unattributed


def _span(i, name, parent, start, end):
    return {"run": "r", "id": i, "name": name, "parent": parent, "start": start, "end": end}


SPANS = [
    _span(0, "bench.job", None, 0.0, 10.0),
    _span(1, "bench.step", 0, 0.0, 6.0),
    _span(2, "analysis.sweep", 1, 1.0, 5.0),
    _span(3, "engine.run_martingale", 2, 2.0, 3.0),
    _span(4, "sequences.read", 0, 7.0, 8.5),
]


def test_self_time_subtracts_children():
    got = self_times(SPANS)
    assert got["analysis"] == 3.0
    assert got["engine"] == 1.0
    assert got["sequences"] == 1.5
    assert got["core"] == 0.0


def test_totals_and_unattributed():
    assert span_totals(SPANS) == {"analysis.sweep_s": 4.0, "engine.run_martingale_s": 1.0,
                                  "sequences.read_s": 1.5}
    # outermost layer spans cover 4.0 + 1.5 of the job's 10 s
    assert unattributed(SPANS, 0) == 4.5
