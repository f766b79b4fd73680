from bench.compare import compare, verdict

BASE = [1.0, 1.01, 0.99, 1.0, 1.02]


def test_worse_by_more_than_the_bound_regresses():
    assert verdict(BASE, [x * 1.3 for x in BASE], "lower", 0.25) \
        == "regressed"
    assert verdict(BASE, [x * 0.7 for x in BASE], "higher", 0.25) \
        == "regressed"


def test_within_the_bound_or_better_is_ok():
    assert verdict(BASE, [x * 1.1 for x in BASE], "lower", 0.25) == "ok"
    assert verdict(BASE, [x * 0.5 for x in BASE], "lower", 0.25) == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [0.5, 1.0, 1.5, 1.0, 0.6]
    assert verdict(BASE, wide, "lower", 0.25) == "unresolved"


def test_rows_pair_untraced_runs_by_workload_and_metric():
    def record(workload, value, trace=False):
        return {"workload": workload, "trace": trace,
                "metrics": {"request_p50_s": {"value": value, "unit": "s"},
                            "cm.decide_s": {"value": value, "unit": "s"}}}

    spec = {"end_to_end": [{"name": "request_p50_s", "unit": "s",
                            "better": "lower", "bound": 0.1}],
            "per_layer": []}
    a = [record("w", 1.0), record("w", 1.0), record("w", 9.0, trace=True)]
    b = [record("w", 1.5), record("w", 1.5), record("v", 1.0)]
    rows = compare(a, b, spec)
    assert [(r["workload"], r["metric"], r["verdict"], r["runs"])
            for r in rows] == [("w", "request_p50_s", "regressed", (2, 2))]
