"""Self-tests for the benchmark itself.

    python3 perfbench/selftest.py

- Two traced zk_mlp sessions report identical `products_per_pt`,
  `wires_per_pt` and `bytes_per_pt.<frame>`, and the prover's and the
  verifier's work counts agree.
- In every traced process there is one root span, no self time is
  negative, and the self times add up to the root span.
- A 20-point zk_mlp session reports the ROADMAP baseline: 4720 products/pt
  and ~4.45k committed wires/pt.
- Each correctness check of `run.py` catches an injected failure once.
- `BENCHMARK.json` lists exactly the metrics, with the units, that `run.py`
  reports.

Exits 0 when every test passes.  Takes about a minute on two cores.
"""

import json
import sys
import time

import run

BASELINE_POINTS = 20
COUNT_KEYS = ("products_per_pt", "wires_per_pt", "bytes_per_pt.")


def traced_session(m, tag):
    s = run.Session(m, tag, trace_run=tag)
    assert s.failure is None, s.failure
    return [run.load_run(c, "zk_audit", r)
            for r, c in (("verifier", s.verifier), ("prover", s.prover))]


def work_counts(runs, n):
    out = run.layer_metrics(runs, n, 0.0)
    return {k: v for k, v in out.items() if any(t in k for t in COUNT_KEYS)}


def check_counts_repeat(m):
    a = traced_session(m, "t1")
    b = traced_session(m, "t2")
    ca, cb = work_counts(a, m.n_points), work_counts(b, m.n_points)
    assert ca == cb, {k: (ca[k], cb[k]) for k in ca if ca[k] != cb[k]}
    v, p = (run.SpanIndex(r) for r in a)
    for name, key in (("itmac.session.multiply_vec", "products"),
                      ("itmac.session.input_vec", "wires"),
                      ("itmac.session.lin_combine", "terms")):
        assert v.count(name, key) == p.count(name, key), name
    return a, ca


def check_self_times(runs):
    for r in runs:
        x = run.SpanIndex(r)
        roots = (x.parent < 0).nonzero()[0]
        assert len(roots) == 1, f"{len(roots)} root spans"
        assert (x.own >= 0).all(), "a child span outlives its parent"
        assert int(x.own.sum()) == int(x.dur[roots[0]]), "self times != root"


def check_baseline(counts):
    products = counts["itmac.session.products_per_pt"]
    wires = counts["itmac.session.wires_per_pt"]
    assert products == 4720, products
    assert abs(wires - 4450) / 4450 < 0.01, wires


def check_failures_caught(m, ws):
    tally = run.Tally()
    good = {"verdict": True, "aborted": False, "bytes_per_point": 1.0}
    caught = {
        "verdict differs from fx_audit": run.Session(
            m, "wrong", expected=not m.expected).failure,
        "timeout": run.Session(m, "slow", timeout=1.0).failure,
        "roles disagree": run.check_session(
            True, [(0, good), (0, dict(good, bytes_per_point=2.0))], True),
        "exit code vs verdict": run.check_session(
            True, [(0, good), (2, good)], True),
        "aborted": run.check_session(
            True, [(3, dict(good, aborted=True)), (3, good)], True),
        "undocumented stage exit code": run.check_stage(
            "train", run.run_stage(("train", ["train", "--data", "missing",
                                              "--out", "m.json"], {0}),
                                   ws, tally).code, {0}, True),
        "artifacts differ": run.check_identical({"a": b"1"}, {"a": b"2"}),
    }
    for what, reason in caught.items():
        assert reason, f"{what} not caught"
        print(f"  caught {what}: {reason}")
    assert tally.failed == 1


def check_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert listed == run.E2E_UNITS, listed
    listed = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert listed == [(n, run.per_layer_unit(n)) for n in run.per_layer_names()]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_benchmark_json()
    print("ok BENCHMARK.json matches the metrics run.py reports")
    ws = run.WORK / f"selftest-{time.time_ns()}"
    ws.mkdir(parents=True)
    try:
        tally = run.Tally()
        m = run.build_zk_model("zk_mlp", 0, ws, tally, n_points=BASELINE_POINTS)
        assert tally.failed == 0
        runs, counts = check_counts_repeat(m)
        print("ok work counts repeat exactly across traced runs and roles")
        check_self_times(runs)
        print("ok self times add up to each role's root span")
        check_baseline(counts)
        print(f"ok baseline: {counts['itmac.session.products_per_pt']:.0f} "
              f"products/pt, {counts['itmac.session.wires_per_pt']:.1f} wires/pt")
        check_failures_caught(m, ws)
        print("ok every correctness check catches its injected failure")
    finally:
        run.remove(ws)
    return 0


if __name__ == "__main__":
    sys.exit(main())
