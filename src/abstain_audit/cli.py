"""Command-line surface wiring data generation, training, attacks, and audits.

Exit codes: 0 success / audit pass, 2 audit fail, 3 tamper abort,
4 I/O or transport failure, 5 bad flags.  ABSTAIN_AUDIT_LOG selects the log
level (error|info|debug).  Every subcommand but zk-audit takes a single
--seed and derives named sub-streams from it, so identical flags produce
byte-identical artifacts.  zk-audit draws its keys from the OS; its verdict
still depends on its inputs alone.
"""

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import abstain, calibration, data as dat, mirage, nets, widgets
from .itmac import channel as itch
from .itmac.session import PROVER, VERIFIER, AbortError
from .zkaudit import FixedPointParams, quantize_model
from .zkaudit.protocol import run_audit

log = logging.getLogger("abstain_audit")

EXIT_OK = 0
EXIT_AUDIT_FAIL = 2
EXIT_ABORT = 3
EXIT_IO = 4
EXIT_FLAGS = 5


def substream(seed: int, name: str) -> int:
    """Deterministic named sub-seed derived from the global --seed."""
    h = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(h[:4], "little")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_FLAGS)


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_schema(data_dir: Path) -> dict:
    with open(data_dir / "schema.json") as fh:
        return json.load(fh)


def _load_split(data_dir: Path, name: str) -> dat.Dataset:
    return dat.load_csv(data_dir / f"{name}.csv", _load_schema(data_dir))


def _load_ref(path: str, schema_path: str | None) -> dat.Dataset:
    p = Path(path)
    if schema_path:
        with open(schema_path) as fh:
            schema = json.load(fh)
    elif (p.parent / "schema.json").exists():
        schema = _load_schema(p.parent)
    else:
        with open(p) as fh:
            cols = fh.readline().strip().split(",")
        schema = {"label": cols[-1], "continuous": cols[:-1]}
    return dat.load_csv(p, schema)


# -- subcommand bodies --------------------------------------------------------


def cmd_gen_data(a) -> int:
    out = Path(a.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = substream(a.seed, "data")
    if a.kind == "gaussian":
        train, test, region = dat.gen_gaussian_mixture(seed)
        schema = {"label": "label", "continuous": ["x0", "x1"]}
    elif a.kind == "tabular":
        train, test, region = dat.gen_tabular(seed, a.n)
        schema = {
            "label": "label",
            "continuous": [c.name for c in train.columns if c.kind == "continuous"],
            "categorical": [c.name for c in train.columns if c.kind == "categorical"],
        }
    else:  # regression
        full, region = dat.gen_regression_synth(seed, a.n)
        n_test = len(full) // 5
        test = full.take(np.arange(n_test))
        train = full.take(np.arange(n_test, len(full)))
        schema = {"label": "label", "continuous": ["x0"], "regression": True}
    dat.save_csv(train, out / "train.csv")
    dat.save_csv(test, out / "test.csv")
    _write_json(out / "region.json", region.to_json())
    _write_json(out / "schema.json", schema)
    log.info("wrote %s: %d train, %d test rows", out, len(train), len(test))
    return EXIT_OK


def cmd_train(a) -> int:
    data_dir = Path(a.data)
    train = _load_split(data_dir, "train")
    dims = [train.X.shape[1]] + a.hidden + [train.n_classes]
    model = nets.init_model(dims, seed=substream(a.seed, "init"))
    cfg = nets.OptConfig(epochs=a.epochs, lr=a.lr, batch_size=a.batch_size,
                         seed=substream(a.seed, "shuffle"), momentum=a.momentum)
    model = nets.train_ce(model, train, cfg)
    nets.save_model(model, a.out)
    acc = nets.accuracy(model, _load_split(data_dir, "test"))
    log.info("trained %s, test accuracy %.4f", dims, acc)
    print(json.dumps({"dims": dims, "test_accuracy": acc}))
    return EXIT_OK


def cmd_calibrate(a) -> int:
    model = nets.load_model(a.model)
    val = _load_split(Path(a.data), "test")
    model.temperature = nets.fit_temperature(model, val)
    T = model.temperature
    model = model.fold_temperature()
    nets.save_model(model, a.out)
    ece = calibration.reliability(model, val, bins=a.bins).ece
    log.info("fitted T=%.4f, post-calibration ECE %.4f", T, ece)
    print(json.dumps({"temperature": T, "ece": ece}))
    return EXIT_OK


def cmd_attack_mirage(a) -> int:
    model = nets.load_model(a.model).fold_temperature()
    data_dir = Path(a.data)
    train = _load_split(data_dir, "train")
    region = dat.load_region(a.region or data_dir / "region.json")
    cfg = mirage.MirageConfig(
        epsilon=a.epsilon, lam=a.lam,
        opt=nets.OptConfig(epochs=a.epochs, lr=a.lr, batch_size=a.batch_size,
                           seed=substream(a.seed, "attack"), momentum=a.momentum))
    attacked = mirage.finetune_mirage(model, train, region, cfg)
    nets.save_model(attacked, a.out)
    test = _load_split(data_dir, "test")
    mask = dat.region_mask(test, region)
    racc = nets.accuracy(attacked, test.take(np.flatnonzero(mask))) if mask.any() else None
    print(json.dumps({"test_accuracy": nets.accuracy(attacked, test),
                      "region_accuracy": racc}))
    return EXIT_OK


def cmd_attack_inject(a) -> int:
    region = dat.load_region(a.region)
    if not isinstance(region, dat.BoxRegion):
        raise ValueError("attack inject needs a box region")
    model = nets.load_model(a.model).fold_temperature()
    if model.n_hidden < 4:  # the widget stack spans four hidden layers
        model = widgets.deepen(model, 4 - model.n_hidden)
    if a.shift:
        c = np.array([float(v) for v in a.shift.split(",")])
        shift = widgets.LogitShift(c - c.min())
    else:
        # probe at the box midpoint to size a confidence-suppressing shift
        mid = np.zeros(model.input_dim)
        for d, lo, hi in region.bounds:
            mid[d] = (lo + hi) / 2
        shift = widgets.uncertainty_shift(model, region, mid[None, :])
    out = widgets.inject_region_shift(model, region, shift)
    nets.save_model(out, a.out)
    print(json.dumps({"shift": shift.c.tolist(),
                      "layer_dims": [W.shape[0] for W, _ in out.layers]}))
    return EXIT_OK


def cmd_attack_regression(a) -> int:
    data_dir = Path(a.data)
    train = _load_split(data_dir, "train")
    test = _load_split(data_dir, "test")
    region = dat.load_region(a.region or data_dir / "region.json")
    dims = [train.X.shape[1]] + a.hidden
    opt = nets.OptConfig(epochs=a.epochs, lr=a.lr, batch_size=a.batch_size,
                         seed=substream(a.seed, "shuffle"), momentum=a.momentum)
    base = nets.init_gaussian_head(dims, seed=substream(a.seed, "init"))
    standard = mirage.train_gaussian_nll(base.copy(), train, opt)
    cfg = mirage.RegressionAttackConfig(var_target=a.var_target, lam=a.lam, opt=opt)
    attacked = mirage.finetune_regression_attack(standard.copy(), train, region, cfg)
    mask = dat.region_mask(test, region)
    doc = {}
    for name, m in (("standard", standard), ("attacked", attacked)):
        _, var = nets.gaussian_predict(m, test.X)
        doc[name] = {"var_in_region": float(var[mask].mean()),
                     "var_outside": float(var[~mask].mean())}
    _write_json(a.out, doc)
    print(json.dumps(doc))
    return EXIT_OK


def _plain_audit(model, ref, bins, alpha):
    report = calibration.reliability(model, ref, bins=bins)
    ok, offending = calibration.audit_verdict(report, alpha)
    return report, ok, offending


def cmd_audit(a) -> int:
    model = nets.load_model(a.model)
    ref = _load_ref(a.ref, a.schema)
    report, ok, offending = _plain_audit(model, ref, a.bins, a.alpha)
    if a.out:
        calibration.write_report_json(
            report, a.out, extra={"alpha": a.alpha, "verdict": ok,
                                  "offending_bins": offending})
    if a.csv:
        calibration.write_reliability_csv(report, a.csv)
    print(json.dumps({"verdict": ok, "ece": report.ece,
                      "offending_bins": offending}))
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def cmd_undersample(a) -> int:
    model = nets.load_model(a.model)
    ref = _load_ref(a.ref, a.schema)
    region = dat.load_region(a.region)
    ref = calibration.undersample_region(ref, region, a.rho,
                                         seed=substream(a.seed, "undersample"))
    report, ok, offending = _plain_audit(model, ref, a.bins, a.alpha)
    if a.out:
        calibration.write_report_json(
            report, a.out, extra={"rho": a.rho, "alpha": a.alpha,
                                  "verdict": ok, "offending_bins": offending})
    print(json.dumps({"rho": a.rho, "verdict": ok, "ece": report.ece,
                      "max_cale": report.max_cale}))
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def cmd_overlap(a) -> int:
    model = nets.load_model(a.model)
    ref = _load_ref(a.ref, a.schema)
    region = dat.load_region(a.region)
    ov = calibration.confidence_overlap(model, ref, region, bins=a.bins)
    print(json.dumps({"overlap": ov}))
    return EXIT_OK


def cmd_abstain_stats(a) -> int:
    model = nets.load_model(a.model)
    ref = _load_ref(a.ref, a.schema)
    region = dat.load_region(a.region)
    inside, outside = abstain.abstention_stats(model, ref, region, a.tau)
    print(json.dumps({"tau": a.tau, "abstention_in_region": inside,
                      "abstention_outside": outside}))
    return EXIT_OK


def _parse_endpoint(s: str):
    host, _, port = s.rpartition(":")
    return host or "127.0.0.1", int(port)


def cmd_zk_audit(a) -> int:
    if a.role == PROVER and not (a.model and a.connect):
        raise ValueError("zk-audit --role prover needs --model and --connect")
    if a.role == VERIFIER and not a.listen:
        raise ValueError("zk-audit --role verifier needs --listen")
    fp = FixedPointParams()
    cfg = calibration.AuditConfig(bins=a.bins, alpha=a.alpha)
    ref_ds = _load_ref(a.ref, a.schema)
    ref = (ref_ds.X, ref_ds.y)
    if a.role == PROVER:
        qm = quantize_model(nets.load_model(a.model), fp)
        host, port = _parse_endpoint(a.connect)
        channel = itch.TcpChannel.connect(host, port)
    else:
        qm = None
        host, port = _parse_endpoint(a.listen)
        channel = itch.TcpChannel.listen_accept(host, port)
    try:
        res = run_audit(a.role, channel, qm, ref, cfg, fp)
    except AbortError:
        log.error("audit aborted: consistency check failed")
        print(json.dumps({"verdict": None, "aborted": True}))
        return EXIT_ABORT
    doc = {"verdict": res.verdict, "aborted": False,
           "runtime_sec_per_point": res.sec_per_point,
           "bytes_per_point": res.bytes_per_point}
    if a.role == VERIFIER and a.out:
        _write_json(a.out, doc)
    print(json.dumps(doc))
    return EXIT_OK if res.verdict else EXIT_AUDIT_FAIL


# -- parser -------------------------------------------------------------------


def _add_opt_flags(p, epochs):
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--momentum", type=float, default=0.9)


def build_parser() -> _Parser:
    root = _Parser(prog="abstain-audit",
                   description="Train, attack, and audit abstaining classifiers.")
    sub = root.add_subparsers(dest="cmd", required=True)

    def new(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0)
        return p

    p = new("gen-data", cmd_gen_data, help="generate a synthetic dataset")
    p.add_argument("kind", choices=["gaussian", "regression", "tabular"])
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--out", required=True)

    p = new("train", cmd_train, help="train a softmax MLP")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", type=lambda s: [int(v) for v in s.split(",")],
                   default=[32])
    _add_opt_flags(p, epochs=40)

    p = new("calibrate", cmd_calibrate, help="fit and fold a temperature")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=int, default=15)

    atk = sub.add_parser("attack", help="apply an uncertainty attack")
    asub = atk.add_subparsers(dest="attack_kind", required=True)

    def new_attack(name, fn):
        p = asub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        return p

    p = new_attack("mirage", cmd_attack_mirage)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--lam", type=float, default=0.9)
    _add_opt_flags(p, epochs=6000)
    p.set_defaults(lr=0.2, batch_size=128)

    p = new_attack("inject", cmd_attack_inject)
    p.add_argument("--model", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--shift", default=None,
                   help="comma-separated per-class logit shift (default: probe)")

    p = new_attack("regression", cmd_attack_regression)
    p.add_argument("--data", required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--hidden", type=lambda s: [int(v) for v in s.split(",")],
                   default=[32])
    p.add_argument("--var-target", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    _add_opt_flags(p, epochs=400)
    # momentum 0.9 diverges and lr 0.1 leaves every trunk ReLU dead
    p.set_defaults(lr=0.02, momentum=0.0)

    def audit_flags(p, need_region):
        p.add_argument("--model", required=True)
        p.add_argument("--ref", required=True)
        p.add_argument("--schema", default=None)
        p.add_argument("--region", required=need_region)
        p.add_argument("--bins", type=int, default=15)
        p.add_argument("--alpha", type=float, default=0.10)
        p.add_argument("--out", default=None)

    p = new("audit", cmd_audit, help="plaintext calibration audit")
    audit_flags(p, need_region=False)
    p.add_argument("--csv", default=None, help="reliability-diagram CSV path")

    p = new("undersample", cmd_undersample,
            help="audit against an undersampled reference set")
    audit_flags(p, need_region=True)
    p.add_argument("--rho", type=float, required=True)

    p = new("overlap", cmd_overlap,
            help="confidence-histogram overlap inside vs outside a region")
    p.add_argument("--model", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--region", required=True)
    p.add_argument("--bins", type=int, default=20)

    p = new("abstain-stats", cmd_abstain_stats,
            help="abstention rates inside vs outside a region")
    p.add_argument("--model", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--region", required=True)
    p.add_argument("--tau", type=float, required=True)

    p = sub.add_parser("zk-audit", help="two-party zero-knowledge audit")
    p.set_defaults(fn=cmd_zk_audit)
    p.add_argument("--role", choices=[PROVER, VERIFIER], required=True)
    p.add_argument("--connect", default=None, help="prover: host:port to dial")
    p.add_argument("--listen", default=None, help="verifier: [host]:port to bind")
    p.add_argument("--model", default=None)
    p.add_argument("--ref", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--alpha", type=float, default=0.10)
    p.add_argument("--out", default=None)

    return root


def main(argv=None) -> int:
    level = os.environ.get("ABSTAIN_AUDIT_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FLAGS if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except AbortError:
        return EXIT_ABORT
    except (OSError, itch.ChannelError, dat.IngestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAGS


if __name__ == "__main__":
    sys.exit(main())
