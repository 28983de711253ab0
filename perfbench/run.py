"""Benchmark for abstain-audit, run through the public CLI.

    python3 perfbench/run.py --workload {zk_mlp,zk_widget,pipeline,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Workloads (see NOTES.md for why each exists and what each metric moves):

- zk_mlp     two-process `zk-audit` over loopback TCP on the attacked
             [2,32,3] net built by gen-data -> train -> calibrate -> attack
             mirage at the workload seed;
- zk_widget  the same audit on the net `attack inject` builds from the
             calibrated model, [2,40,72,68,65,3];
- pipeline   the researcher's nine CLI stages, one subprocess per stage.

Every workload is a closed loop: one audit session or one stage at a time.
`--seed` goes to gen-data, train and the attacks; the zk-audit roles get only
the generated files.  The set-up (model building and the `fx_audit`
reference verdict) runs three times, or nine CLI start-ups for `pipeline`,
and `setup_s` is its median.  The timed window then repeats operations until
`--seconds` have passed.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the same timed
window untraced (for the overhead figure), then the zk set-up stages and one
session, or one pipeline pass, with every process started through
`launcher.py`, and prints the per-layer metrics.  Lines before the last are informational; the last
line is one JSON object {correct, attempted, failed, metrics}.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import tracer as tr  # noqa: E402

WORKLOADS = ("zk_mlp", "zk_widget", "pipeline")
ZK_POINTS = {"zk_mlp": 10, "zk_widget": 2}  # reference prefix per session
SETUP_REPEATS = 3
WARM_START_REPEATS = 9  # a CLI start-up is short, so take more samples
# Attack lengths.  The CLI defaults (6000 and 400 epochs) make one pipeline
# pass ~17 s, too few passes per run for a steady median; a quarter of each
# runs the same per-epoch code.  The zk circuit's cost does not depend on the
# weights, so the zk set-up shortens the attack further.
PIPELINE_MIRAGE_EPOCHS, PIPELINE_REGRESSION_EPOCHS = 1500, 100
SETUP_MIRAGE_EPOCHS = 300
BINS, ALPHA, EPSILON, TAU = 15, 0.10, 0.15, 0.5
OP_TIMEOUT_S = 120.0
EXIT_PASS, EXIT_AUDIT_FAIL = 0, 2  # cli.py's codes for a zk-audit verdict

# Child processes: one BLAS thread each, so a role or stage is one busy core.
ENV = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
           OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
           ABSTAIN_AUDIT_LOG="error")


def pipeline_stages(seed: int, mirage_epochs: int = PIPELINE_MIRAGE_EPOCHS):
    """(name, argv, exit codes cli.py documents for it); paths are relative
    to the pass directory."""
    s = str(seed)
    return [
        ("gen_data_gaussian", ["gen-data", "gaussian", "--seed", s, "--out", "d"], {0}),
        ("train", ["train", "--data", "d", "--out", "m.json", "--seed", s], {0}),
        ("calibrate", ["calibrate", "--model", "m.json", "--data", "d",
                       "--out", "mc.json"], {0}),
        ("attack_mirage", ["attack", "mirage", "--model", "mc.json", "--data", "d",
                           "--epsilon", str(EPSILON), "--out", "atk.json",
                           "--epochs", str(mirage_epochs), "--seed", s], {0}),
        ("audit", ["audit", "--model", "atk.json", "--ref", "d/test.csv",
                   "--bins", str(BINS), "--alpha", str(ALPHA),
                   "--out", "report.json", "--csv", "reliability.csv"], {0, 2}),
        ("abstain_stats", ["abstain-stats", "--model", "atk.json", "--ref",
                           "d/test.csv", "--region", "d/region.json",
                           "--tau", str(TAU)], {0}),
        ("attack_inject", ["attack", "inject", "--model", "mc.json", "--region",
                           "d/region.json", "--out", "widget.json",
                           "--seed", s], {0}),
        ("gen_data_regression", ["gen-data", "regression", "--seed", s,
                                 "--out", "r"], {0}),
        ("attack_regression", ["attack", "regression", "--data", "r",
                               "--out", "regression.json",
                               "--epochs", str(PIPELINE_REGRESSION_EPOCHS),
                               "--seed", s], {0}),
    ]


def zk_setup_stages(workload: str, seed: int):
    stages = pipeline_stages(seed, SETUP_MIRAGE_EPOCHS)
    return stages[:4] + (stages[6:7] if workload == "zk_widget" else [])


# -- child processes ------------------------------------------------------------


class Child:
    """One CLI process, reaped with os.wait4 so its rusage is kept."""

    def __init__(self, argv, cwd: Path, tag: str, trace_run: str | None = None):
        self.out = cwd / f"{tag}.out"
        self.spans = cwd / f"{tag}.spans.json" if trace_run else None
        if trace_run:
            cmd = [sys.executable, str(HERE / "launcher.py"), str(self.spans),
                   trace_run, *argv]
        else:
            cmd = [sys.executable, "-m", "abstain_audit.cli", *argv]
        self.code = None
        self.cpu_s = 0.0
        self.maxrss_kib = 0
        self.t_end = None
        self._lock = threading.Lock()
        with open(self.out, "wb") as out, open(cwd / f"{tag}.err", "wb") as err:
            self.t0 = time.perf_counter()
            self.proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdout=out,
                                         stderr=err)

    @property
    def wall_s(self) -> float:
        return self.t_end - self.t0

    def exited(self) -> bool:
        """True once the child has exited; does not reap it."""
        info = os.waitid(os.P_PID, self.proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return info is not None

    def wait(self) -> None:
        # wait without reaping, so kill() never signals a recycled pid
        os.waitid(os.P_PID, self.proc.pid, os.WEXITED | os.WNOWAIT)
        with self._lock:
            self.t_end = time.perf_counter()
            _, status, ru = os.wait4(self.proc.pid, 0)
            self.code = os.waitstatus_to_exitcode(status)
            self.proc.returncode = self.code  # wait4 reaped it behind Popen
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.maxrss_kib = ru.ru_maxrss

    def kill(self) -> None:
        with self._lock:
            if self.code is None:
                self.proc.kill()

    def last_json(self):
        lines = self.out.read_text().strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None


def stop(children) -> None:
    """Kill and reap every child not reaped yet."""
    for c in children:
        c.kill()
    for c in children:
        if c.code is None:
            c.wait()


def reap(children, deadline: float) -> bool:
    """Wait for every child; kill them all at `deadline` (perf_counter).
    Returns False if the deadline hit."""
    hit = threading.Event()

    def on_timeout():
        hit.set()
        for c in children:
            c.kill()

    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), on_timeout)
    timer.start()
    try:
        for c in children:
            c.wait()
    except BaseException:
        stop(children)
        raise
    finally:
        timer.cancel()
    return not hit.is_set()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def listening(port: int) -> bool:
    """True once a socket listens on 127.0.0.1:port (read from /proc/net/tcp,
    because the verifier takes the first connection as the prover)."""
    want = f"0100007F:{port:04X}"
    with open("/proc/net/tcp") as fh:
        next(fh)
        return any(f[1] == want and f[3] == "0A"
                   for f in (line.split() for line in fh))


# -- correctness checks -----------------------------------------------------------


def check_session(expected: bool, results, completed: bool) -> str | None:
    """Why a zk-audit session failed, or None.  `results` holds the
    (exit code, last JSON line) of the verifier and the prover."""
    if not completed:
        return "timed out"
    (v_code, v_doc), (p_code, p_doc) = results
    if v_doc is None or p_doc is None:
        return "a role printed no result"
    if v_doc.get("aborted") or p_doc.get("aborted"):
        return "session aborted"
    keys = ("verdict", "aborted", "bytes_per_point")
    if any(v_doc.get(k) != p_doc.get(k) for k in keys):
        return "the roles' outputs disagree"
    want_code = EXIT_PASS if v_doc["verdict"] else EXIT_AUDIT_FAIL
    if v_code != want_code or p_code != want_code:
        return f"exit codes {v_code}/{p_code} do not match verdict {v_doc['verdict']}"
    if v_doc["verdict"] != expected:
        return f"verdict {v_doc['verdict']} differs from fx_audit's {expected}"
    return None


def check_stage(name: str, code: int, allowed, completed: bool) -> str | None:
    if not completed:
        return f"{name} timed out"
    if code not in allowed:
        return f"{name} exited {code}, not one of {sorted(allowed)}"
    return None


def artifacts(d: Path) -> dict:
    """Relative path -> bytes for every artifact under d (process logs and
    traces excluded)."""
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*"))
            if p.is_file() and not p.name.endswith((".out", ".err", ".spans.json"))}


def check_identical(a: dict, b: dict) -> str | None:
    if a.keys() != b.keys():
        return f"artifact sets differ: {sorted(a.keys() ^ b.keys())}"
    diff = [k for k in a if a[k] != b[k]]
    return f"artifacts differ across repetitions: {diff}" if diff else None


class Tally:
    """Operations attempted and failed; a failure is printed with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            print(f"FAIL {reason}", flush=True)


# -- operations -------------------------------------------------------------------


def run_stage(stage, cwd: Path, tally: Tally, trace_run=None) -> Child:
    name, argv, allowed = stage
    c = Child(argv, cwd, name, trace_run)
    done = reap([c], time.perf_counter() + OP_TIMEOUT_S)
    tally.record(check_stage(name, c.code, allowed, done))
    return c


@dataclass
class ZkModel:
    """What the set-up leaves for the sessions: the workspace, the model
    file in it, the reference prefix's length and the fx_audit verdict."""

    ws: Path
    model: str
    n_points: int
    expected: bool


def build_zk_model(workload: str, seed: int, ws: Path, tally: Tally,
                   n_points: int | None = None) -> ZkModel:
    for stage in zk_setup_stages(workload, seed):
        run_stage(stage, ws, tally)
    n = n_points or ZK_POINTS[workload]
    ref = ws / "ref"
    ref.mkdir(exist_ok=True)
    shutil.copy(ws / "d" / "schema.json", ref / "schema.json")
    lines = (ws / "d" / "test.csv").read_text().splitlines(keepends=True)
    (ref / "test.csv").write_text("".join(lines[:1 + n]))
    model = "widget.json" if workload == "zk_widget" else "atk.json"
    return ZkModel(ws, model, n, reference_verdict(ws / model, ref))


def reference_verdict(model_path: Path, ref: Path) -> bool:
    """The fixed-point oracle's verdict on the quantized model and prefix."""
    from abstain_audit import calibration, data, nets
    from abstain_audit.zkaudit import fixedpoint

    schema = json.loads((ref / "schema.json").read_text())
    ds = data.load_csv(ref / "test.csv", schema)
    fp = fixedpoint.FixedPointParams()
    qm = fixedpoint.quantize_model(nets.load_model(model_path), fp)
    cfg = calibration.AuditConfig(bins=BINS, alpha=ALPHA)
    ok, _ = fixedpoint.fx_audit(qm, ds.X, ds.y, cfg, fp)
    return ok


class Session:
    """One two-process zk-audit: verifier listens, prover connects."""

    def __init__(self, m: ZkModel, tag: str, trace_run=None,
                 timeout: float = OP_TIMEOUT_S, expected: bool | None = None):
        port = free_port()
        common = ["--ref", "ref/test.csv", "--bins", str(BINS), "--alpha", str(ALPHA)]
        deadline = time.perf_counter() + timeout
        self.verifier = Child(["zk-audit", "--role", "verifier", "--listen",
                               f"127.0.0.1:{port}", "--out", f"{tag}.verdict.json",
                               *common], m.ws, f"{tag}.verifier", trace_run)
        self.prover = None
        roles = [self.verifier]
        try:
            while not listening(port):
                if self.verifier.exited() or time.perf_counter() > deadline:
                    break
                time.sleep(0.001)  # poll; the verifier's start-up is being timed
            else:
                self.prover = Child(["zk-audit", "--role", "prover", "--connect",
                                     f"127.0.0.1:{port}", "--model", m.model,
                                     *common], m.ws, f"{tag}.prover", trace_run)
                roles.append(self.prover)
        except BaseException:
            stop(roles)
            raise
        completed = reap(roles, deadline)
        self.wall_s = max(c.t_end for c in roles) - self.verifier.t0
        self.doc = self.verifier.last_json()
        if self.prover is None:
            self.failure = ("the verifier never listened" if completed
                            else "timed out before the verifier listened")
        else:
            results = [(c.code, c.last_json()) for c in roles]
            want = m.expected if expected is None else expected
            self.failure = check_session(want, results, completed)


# -- end-to-end metrics -------------------------------------------------------------


def setup_reps(build, work: Path, tally: Tally, repeats: int = SETUP_REPEATS):
    """Run the set-up `repeats` times in fresh directories; returns the
    first result and the median set-up time."""
    times, outs, dirs = [], [], []
    for i in range(repeats):
        ws = work / f"setup{i}"
        ws.mkdir(parents=True)
        t0 = time.perf_counter()
        outs.append(build(ws))
        times.append(time.perf_counter() - t0)
        dirs.append(ws)
    first = artifacts(dirs[0])
    if first:
        for d in dirs[1:]:
            tally.record(check_identical(first, artifacts(d)))
    return outs[0], statistics.median(times)


def run_zk(workload: str, seed: int, seconds: float, trace: bool, work: Path,
           tally: Tally):
    m, setup_s = setup_reps(lambda ws: build_zk_model(workload, seed, ws, tally),
                            work, tally)
    print(f"info reference prefix {m.n_points} points, fx_audit verdict "
          f"{m.expected}", flush=True)
    sessions = []
    t0 = time.perf_counter()
    while not sessions or time.perf_counter() - t0 < seconds:
        s = Session(m, f"s{len(sessions)}")
        tally.record(s.failure)
        sessions.append(s)
    ok = [s for s in sessions if not s.failure] or sessions
    n = m.n_points
    print("info session ms/pt: " + " ".join(f"{s.wall_s / n * 1e3:.0f}" for s in sessions),
          flush=True)
    med = statistics.median
    wall = med([s.wall_s / n * 1e3 for s in ok])
    p_cpu = med([s.prover.cpu_s / n * 1e3 for s in ok if s.prover])
    v_cpu = med([s.verifier.cpu_s / n * 1e3 for s in ok])
    cpu = med([(s.prover.cpu_s + s.verifier.cpu_s) / n * 1e3 for s in ok if s.prover])
    rss = max(c.maxrss_kib for s in sessions for c in (s.verifier, s.prover) if c) / 1024
    kib = med([s.doc["bytes_per_point"] / 1024 for s in ok if s.doc])
    info = {"audit_ms_per_pt": (wall, "ms"), "audit_kib_per_pt": (kib, "KiB"),
            "prover_cpu_ms_per_pt": (p_cpu, "ms"),
            "verifier_cpu_ms_per_pt": (v_cpu, "ms"),
            "peak_rss_mib": (rss, "MiB"), "setup_s": (setup_s, "s"),
            "sessions": (len(sessions), "count"), "points_per_session": (n, "count")}
    e2e = {"setup_s": setup_s, "wall_ms": wall, "cpu_ms": cpu,
           "peak_rss_mib": rss, "io_kib": kib}
    layers = None
    if trace:
        layers = trace_zk(workload, seed, m, wall, work / "traced", tally)
    return e2e, info, layers


def pipeline_pass(seed: int, d: Path, tally: Tally, trace_run=None):
    d.mkdir(parents=True)
    t0 = time.perf_counter()
    children = [run_stage(st, d, tally, trace_run) for st in pipeline_stages(seed)]
    return time.perf_counter() - t0, children


def warm_start(ws: Path, tally: Tally) -> None:
    """Pipeline set-up: one CLI start-up (interpreter, imports, bytecode)."""
    run_stage(("warm_start", ["--help"], {0}), ws, tally)


def mean_confidence(model_path: Path, d: Path):
    """Mean max-confidence on the test split inside and outside the region."""
    from abstain_audit import data, nets

    schema = json.loads((d / "schema.json").read_text())
    test = data.load_csv(d / "test.csv", schema)
    mask = data.region_mask(test, data.load_region(d / "region.json"))
    conf = nets.predict_probs(nets.load_model(model_path), test.X).max(axis=1)
    return float(conf[mask].mean()), float(conf[~mask].mean())


def run_pipeline(seed: int, seconds: float, trace: bool, work: Path, tally: Tally):
    _, setup_s = setup_reps(lambda ws: warm_start(ws, tally), work, tally,
                            WARM_START_REPEATS)
    passes = []
    t0 = time.perf_counter()
    # at least two passes: their artifacts must be byte-identical
    while len(passes) < 2 or time.perf_counter() - t0 < seconds:
        passes.append(pipeline_pass(seed, work / f"pass{len(passes)}", tally))
    first = artifacts(work / "pass0")
    for i in range(1, len(passes)):
        tally.record(check_identical(first, artifacts(work / f"pass{i}")))
    print("info pass s: " + " ".join(f"{w:.2f}" for w, _ in passes), flush=True)
    p0 = work / "pass0"
    for label, model in (("calibrated", "mc.json"), ("attack_mirage", "atk.json")):
        cin, cout = mean_confidence(p0 / model, p0 / "d")
        print(f"info {label} mean max-confidence on the test split: "
              f"in region {cin:.3f}, outside {cout:.3f} (ungated)", flush=True)
    med = statistics.median
    wall = med([w for w, _ in passes])
    cpu = med([sum(c.cpu_s for c in cs) for _, cs in passes])
    rss = max(c.maxrss_kib for _, cs in passes for c in cs) / 1024
    kib = sum(len(b) for b in first.values()) / 1024
    stage_s = {st[0]: med([cs[i].wall_s for _, cs in passes])
               for i, st in enumerate(pipeline_stages(seed))}
    info = {"pipeline_s": (wall, "s"),
            "attack_mirage_s": (stage_s["attack_mirage"], "s"),
            "attack_regression_s": (stage_s["attack_regression"], "s"),
            "pipeline_cpu_s": (cpu, "s"), "peak_rss_mib": (rss, "MiB"),
            "artifact_kib": (kib, "KiB"), "setup_s": (setup_s, "s"),
            "passes": (len(passes), "count")}
    info.update({f"stage.{k}_s": (v, "s") for k, v in stage_s.items()})
    e2e = {"setup_s": setup_s, "wall_ms": wall * 1e3, "cpu_ms": cpu * 1e3,
           "peak_rss_mib": rss, "io_kib": kib}
    layers = trace_pipeline(seed, wall * 1e3, work / "traced", tally) if trace else None
    return e2e, info, layers


# -- traced run ----------------------------------------------------------------------


def load_run(child: Child, stage: str, role: str | None = None) -> dict:
    doc = json.loads(child.spans.read_text())
    doc.update(stage=stage, role=role, wall_s=child.wall_s)
    return doc


def trace_zk(workload, seed, m: ZkModel, untraced_ms, ws: Path, tally):
    runs = []
    ws.mkdir()
    stages = zk_setup_stages(workload, seed)
    for stage in stages:
        runs.append(load_run(run_stage(stage, ws, tally, f"setup.{stage[0]}"),
                             stage[0]))
    t = tr.Tracer("setup.fx_audit")
    from abstain_audit.zkaudit import fixedpoint
    original = fixedpoint.fx_audit
    fixedpoint.fx_audit = t.wrap("zkaudit.fixedpoint.fx_audit", original)
    try:
        reference_verdict(m.ws / m.model, m.ws / "ref")
    finally:
        fixedpoint.fx_audit = original
    runs.append({"stage": "fx_audit", "role": None, **t.to_json()})
    s = Session(m, "traced", trace_run="session")
    tally.record(s.failure)
    for role, c in (("verifier", s.verifier), ("prover", s.prover)):
        if c is not None and c.spans.exists():
            runs.append(load_run(c, "zk_audit", role))
    overhead = s.wall_s / m.n_points * 1e3 - untraced_ms
    return layer_metrics(runs, m.n_points, overhead)


def trace_pipeline(seed, untraced_ms, ws: Path, tally):
    wall, children = pipeline_pass(seed, ws, tally, "pipeline")
    runs = [load_run(c, st[0]) for c, st in zip(children, pipeline_stages(seed))]
    return layer_metrics(runs, 1, wall * 1e3 - untraced_ms)


# -- per-layer metrics ------------------------------------------------------------------

ROLES = ("prover", "verifier")
CLI_STAGES = [st[0] for st in pipeline_stages(0)]
GADGETS = ("linear_public_input", "linear_hidden", "rescale", "relu", "argmax",
           "table_read", "confidence", "equals", "zk_bin_update", "zk_bin_check")
MAX_LAYERS = 5  # zk_widget's [2,40,72,68,65,3] has five
CIRCUIT_UNITS = ([f"zkaudit.circuit.{g}" for g in GADGETS]
                 + [f"zkaudit.circuit.layer{k}" for k in range(MAX_LAYERS)])


def per_layer_names():
    names = ["cli.startup_s"] + [f"cli.{s}_s" for s in CLI_STAGES]
    names += ["data.load_csv_s", "data.save_csv_s", "nets.train_ce_s",
              "nets.fit_temperature_s", "nets.backprop.calls",
              "nets.backprop.self_s", "mirage.finetune_mirage_s",
              "mirage.us_per_step", "mirage.train_gaussian_nll_s",
              "mirage.finetune_regression_attack_s", "widgets.deepen_s",
              "widgets.inject_region_shift_s", "calibration.reliability_s",
              "abstain.abstention_stats_s", "zkaudit.fixedpoint.quantize_model_s",
              "zkaudit.fixedpoint.fx_audit_s"]
    for m in ("run_audit_s", "commit_s", "point_ms_p50"):
        names += [f"zkaudit.protocol.{m}.{r}" for r in ROLES]
    for u in CIRCUIT_UNITS:
        names += [f"{u}.ms_per_pt.{r}" for r in ROLES]
        names += [f"{u}.products_per_pt", f"{u}.wires_per_pt"]
    s = "itmac.session"
    names += [f"{s}.products_per_pt", f"{s}.wires_per_pt",
              f"{s}.lin_combine.calls_per_pt", f"{s}.lin_combine.terms_per_pt"]
    names += [f"{s}.{f}.self_ms_per_pt.{r}"
              for f in ("lin_combine", "multiply_vec", "input_vec") for r in ROLES]
    names += [f"{s}.batch_check.calls_per_pt", f"{s}.batch_check.claims_per_pt"]
    names += [f"{s}.batch_check.self_ms_per_pt.{r}" for r in ROLES]
    names += [f"{s}.refill.calls", f"{s}.preproc_used_ratio",
              f"{s}.dealer.make_triples_us_per_item",
              f"{s}.dealer.make_auth_us_per_item", f"{s}.dealer.ms_per_pt"]
    c = "itmac.channel"
    names += [f"{c}.bytes_per_pt.{f}" for f in tr.FRAME_METRICS]
    names += [f"{c}.frames_per_pt"] + [f"{c}.recv_wait_ms_per_pt.{r}" for r in ROLES]
    names += [f"{c}.pack_ns_per_elem", f"{c}.unpack_ns_per_elem"]
    names += [f"itmac.field.{f}_ns" for f in ("eadd", "emul", "escale", "fmul")]
    names += ["trace.overhead_ms"]
    return names


def per_layer_unit(name: str) -> str:
    base = name.removesuffix(".prover").removesuffix(".verifier")
    if "bytes_per_pt" in base:
        return "B"
    for suffix, unit in (("_ms_per_pt", "ms"), (".ms_per_pt", "ms"),
                         ("_ms_p50", "ms"), ("_ms", "ms"),
                         ("_ns", "ns"), ("_ns_per_elem", "ns"),
                         ("us_per_item", "us"), ("us_per_step", "us"),
                         ("_s", "s"), ("_ratio", "ratio")):
        if base.endswith(suffix):
            return unit
    return "count"


class SpanIndex:
    """One process's spans: durations, self times, subtree counts."""

    def __init__(self, run):
        self.run = run
        self.ids = {n: i for i, n in enumerate(run["names"])}
        self.name_id = np.array(run["name_id"], dtype=np.int64)
        self.parent = np.array(run["parent"], dtype=np.int64)
        self.dur = np.array(run["end"], dtype=np.int64) - np.array(run["start"], dtype=np.int64)
        self.own = self.dur.copy()
        nested = self.parent >= 0
        np.subtract.at(self.own, self.parent[nested], self.dur[nested])
        self._inc = {}

    def named(self, name):
        return np.flatnonzero(self.name_id == self.ids.get(name, -1))

    def total_s(self, name, own=False) -> float:
        return float((self.own if own else self.dur)[self.named(name)].sum()) / 1e9

    def inclusive(self, key):
        """Per span, the `key` work items counted in its subtree."""
        if key not in self._inc:
            inc = np.zeros(len(self.dur), dtype=np.int64)
            pairs = np.array(self.run["counts"].get(key, []), dtype=np.int64)
            np.add.at(inc, pairs[0::2], pairs[1::2])
            inc, parent = inc.tolist(), self.parent.tolist()
            for i in range(len(inc) - 1, 0, -1):  # a child's index > its parent's
                if inc[i] and parent[i] >= 0:
                    inc[parent[i]] += inc[i]
            self._inc[key] = np.array(inc, dtype=np.int64)
        return self._inc[key]

    def count(self, name, key) -> int:
        return int(self.inclusive(key)[self.named(name)].sum())

    def inside(self, i, ancestor) -> bool:
        want = self.ids.get(ancestor, -1)
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == want:
                return True
            p = self.parent[p]
        return False


def layer_metrics(runs, n_points: int, overhead_ms: float) -> dict:
    """Reduce the traced run's spans to the per-layer metrics.  A metric of a
    layer the workload never entered reads 0."""
    out = dict.fromkeys(per_layer_names(), 0.0)
    idx = [SpanIndex(r) for r in runs]
    procs = [x for x in idx if "wall_s" in x.run]

    def total(name, own=False):
        return sum(x.total_s(name, own) for x in idx)

    if procs:
        out["cli.startup_s"] = statistics.mean(
            x.run["wall_s"] - x.total_s("cli.main") for x in procs)
    for x in procs:
        if x.run["stage"] in CLI_STAGES:
            out[f"cli.{x.run['stage']}_s"] = x.run["wall_s"]
    for name in ("data.load_csv", "data.save_csv", "nets.train_ce",
                 "nets.fit_temperature", "mirage.finetune_mirage",
                 "mirage.train_gaussian_nll", "mirage.finetune_regression_attack",
                 "widgets.deepen", "widgets.inject_region_shift",
                 "calibration.reliability", "abstain.abstention_stats",
                 "zkaudit.fixedpoint.quantize_model", "zkaudit.fixedpoint.fx_audit"):
        out[f"{name}_s"] = total(name)
    out["nets.backprop.calls"] = sum(len(x.named("nets.backprop")) for x in idx)
    out["nets.backprop.self_s"] = total("nets.backprop", own=True)
    steps = sum(x.inside(i, "mirage.finetune_mirage")
                for x in idx for i in x.named("nets.backprop"))
    if steps:
        out["mirage.us_per_step"] = out["mirage.finetune_mirage_s"] / steps * 1e6

    role = {r: [x for x in idx if x.run["role"] == r] for r in ROLES}
    if role["prover"] and role["verifier"]:
        zk_metrics(out, role, n_points)
    out.update(field_timings())
    out["trace.overhead_ms"] = overhead_ms
    return out


def zk_metrics(out: dict, role: dict, n: int) -> None:
    P, V = role["prover"][0], role["verifier"][0]
    for r, x in (("prover", P), ("verifier", V)):
        out[f"zkaudit.protocol.run_audit_s.{r}"] = x.total_s("zkaudit.protocol.run_audit")
        (ra,) = x.named("zkaudit.protocol.run_audit")
        ends = np.array(x.run["end"])
        checks = ends[x.named("itmac.session.batch_check")]
        out[f"zkaudit.protocol.commit_s.{r}"] = (checks[0] - x.run["start"][ra]) / 1e9
        out[f"zkaudit.protocol.point_ms_p50.{r}"] = \
            float(np.median(np.diff(checks[:n + 1]))) / 1e6
        for u in CIRCUIT_UNITS:
            out[f"{u}.ms_per_pt.{r}"] = x.total_s(u) / n * 1e3
        s = "itmac.session"
        for f in ("lin_combine", "multiply_vec", "input_vec", "batch_check"):
            out[f"{s}.{f}.self_ms_per_pt.{r}"] = x.total_s(f"{s}.{f}", own=True) / n * 1e3
        out[f"itmac.channel.recv_wait_ms_per_pt.{r}"] = \
            x.total_s("itmac.channel.recv") / n * 1e3
    for u in CIRCUIT_UNITS:
        out[f"{u}.products_per_pt"] = P.count(u, "products") / n
        out[f"{u}.wires_per_pt"] = P.count(u, "wires") / n
    s = "itmac.session"
    products = P.count("itmac.session.multiply_vec", "products")
    wires = P.count("itmac.session.input_vec", "wires")
    out[f"{s}.products_per_pt"] = products / n
    out[f"{s}.wires_per_pt"] = wires / n
    out[f"{s}.lin_combine.calls_per_pt"] = len(P.named(f"{s}.lin_combine")) / n
    out[f"{s}.lin_combine.terms_per_pt"] = P.count(f"{s}.lin_combine", "terms") / n
    out[f"{s}.batch_check.calls_per_pt"] = len(P.named(f"{s}.batch_check")) / n
    out[f"{s}.batch_check.claims_per_pt"] = P.count(f"{s}.batch_check", "claims") / n
    out[f"{s}.refill.calls"] = len(P.named(f"{s}.refill"))
    used = wires + products
    out[f"{s}.preproc_used_ratio"] = used / (used + sum(P.run["leftover"]))
    for f in ("make_triples", "make_auth"):
        name = f"{s}.dealer.{f}"
        items = V.count(name, "items")
        out[f"{name}_us_per_item"] = V.total_s(name) / items * 1e6 if items else 0.0
    out[f"{s}.dealer.ms_per_pt"] = (V.total_s(f"{s}.dealer.make_triples")
                                    + V.total_s(f"{s}.dealer.make_auth")) / n * 1e3
    c = "itmac.channel"
    for f in tr.FRAME_METRICS:
        out[f"{c}.bytes_per_pt.{f}"] = sum(
            x.count(f"{c}.send", f"bytes.{f}") for x in (P, V)) / n
    out[f"{c}.frames_per_pt"] = sum(len(x.named(f"{c}.send")) for x in (P, V)) / n
    for f in ("pack", "unpack"):
        name = f"{c}.{f}_fields"
        elems = sum(x.count(name, "elems") for x in (P, V))
        out[f"{c}.{f}_ns_per_elem"] = sum(x.total_s(name) for x in (P, V)) / elems * 1e9


def field_timings(calls: int = 20000, repeats: int = 5) -> dict:
    """ns per call of the F_p / F_{p^2} primitives on fixed operands.  They
    run ~10^5 times per point, so they are timed here, not wrapped."""
    from abstain_audit.itmac import field

    x, y = (0x1234567890ABCDE, 0x0FEDCBA98765432), (0x1111111111111, 0x2222222222222)
    s = 0x13579BDF02468AC
    cases = {"eadd": (field.eadd, (x, y)), "emul": (field.emul, (x, y)),
             "escale": (field.escale, (x, s)), "fmul": (field.fmul, (s, x[0]))}
    out = {}
    for name, (fn, args) in cases.items():
        best = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn(*args)
            best.append((time.perf_counter_ns() - t0) / calls)
        out[f"itmac.field.{name}_ns"] = statistics.median(best)
    return out


# -- entry point ------------------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "wall_ms": "ms", "cpu_ms": "ms",
             "peak_rss_mib": "MiB", "io_kib": "KiB"}


def remove(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()  # only if no other run is using it
    except OSError:
        pass


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if workload == "pipeline":
            e2e, info, layers = run_pipeline(seed, seconds, trace, work, tally)
        else:
            e2e, info, layers = run_zk(workload, seed, seconds, trace, work, tally)
    finally:
        remove(work)
    info["ops_attempted"] = (tally.attempted, "count")
    info["ops_failed"] = (tally.failed, "count")
    for name, (value, unit) in info.items():
        print(f"metric {workload} {name} {value:.6g} {unit}", flush=True)
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so running children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "abstain_audit" / "cli.py").is_file():
        print(f"error: no abstain_audit package under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    import abstain_audit.cli  # noqa: F401  (import cost stays out of setup_s)

    for w in (WORKLOADS if a.workload == "all" else (a.workload,)):
        print(json.dumps(run_workload(w, a.seed, a.seconds, bool(a.trace))),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
