import json
import threading

import pytest

from abstain_audit import cli
from abstain_audit.nets import load_model


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1]) if out else None


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data + train + calibrate pipeline shared by the CLI tests."""
    ws = tmp_path_factory.mktemp("cli")
    d = ws / "d"
    assert cli.main(["gen-data", "gaussian", "--seed", "7", "--out", str(d)]) == 0
    m = ws / "m.json"
    assert cli.main(["train", "--data", str(d), "--out", str(m),
                     "--seed", "7", "--epochs", "15"]) == 0
    mc = ws / "mc.json"
    assert cli.main(["calibrate", "--model", str(m), "--data", str(d),
                     "--out", str(mc)]) == 0
    return ws


def test_gen_data_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["gen-data", "gaussian", "--seed", "3",
                         "--out", str(out)]) == 0
    assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
    assert (a / "region.json").read_bytes() == (b / "region.json").read_bytes()


def test_train_output_is_valid_model(workspace):
    model = load_model(workspace / "m.json")
    assert model.input_dim == 2 and model.n_classes == 3


def _loose_alpha(workspace):
    """Alpha just above the calibrated model's own max per-bin error."""
    from abstain_audit.calibration import reliability
    from abstain_audit.data import load_csv
    import json as _json
    schema = _json.loads((workspace / "d" / "schema.json").read_text())
    ref = load_csv(workspace / "d" / "test.csv", schema)
    rep = reliability(load_model(workspace / "mc.json"), ref, bins=15)
    return float(rep.max_cale) + 0.01


def test_audit_exit_codes(workspace, capsys):
    mc = workspace / "mc.json"
    ref = workspace / "d" / "test.csv"
    code, doc = run(["audit", "--model", str(mc), "--ref", str(ref),
                     "--alpha", str(_loose_alpha(workspace))], capsys)
    assert code == 0 and doc["verdict"] is True
    code, doc = run(["audit", "--model", str(mc), "--ref", str(ref),
                     "--alpha", "0.001"], capsys)
    assert code == 2 and doc["verdict"] is False and doc["offending_bins"]


def test_audit_writes_reports(workspace, capsys, tmp_path):
    rep, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    code, _ = run(["audit", "--model", str(workspace / "mc.json"),
                   "--ref", str(workspace / "d" / "test.csv"),
                   "--alpha", str(_loose_alpha(workspace)),
                   "--out", str(rep), "--csv", str(csv_path)],
                  capsys)
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["verdict"] is True and "counts" in doc
    header = csv_path.read_text().splitlines()[0]
    assert header == "bin_lo,bin_hi,count,conf,acc,cale"


def test_undersample_and_overlap_and_abstain(workspace, capsys):
    mc = str(workspace / "mc.json")
    ref = str(workspace / "d" / "test.csv")
    region = str(workspace / "d" / "region.json")
    code, doc = run(["undersample", "--model", mc, "--ref", ref,
                     "--region", region, "--rho", "1.0", "--alpha", "0.5"],
                    capsys)
    assert code in (0, 2) and doc["rho"] == 1.0
    assert (code == 0) == doc["verdict"]
    code, doc = run(["overlap", "--model", mc, "--ref", ref,
                     "--region", region], capsys)
    assert code == 0 and 0.0 <= doc["overlap"] <= 1.0
    code, doc = run(["abstain-stats", "--model", mc, "--ref", ref,
                     "--region", region, "--tau", "0.4"], capsys)
    assert code == 0 and 0.0 <= doc["abstention_outside"] <= 1.0


def test_bad_flags_exit_five(capsys, tmp_path):
    assert cli.main(["bogus"]) == 5
    assert cli.main(["train"]) == 5  # missing required flags
    capsys.readouterr()
    # flags argparse cannot check: each names the problem and exits 5
    region = tmp_path / "pred.json"
    region.write_text(json.dumps(
        {"type": "predicate", "clauses": [{"col": "x0", "lo": 0, "hi": 1}]}))
    ref = str(tmp_path / "ref.csv")
    for argv, problem in (
            (["zk-audit", "--role", "prover", "--ref", ref,
              "--connect", ":1"], "--model and --connect"),
            (["zk-audit", "--role", "prover", "--ref", ref,
              "--model", "m.json"], "--model and --connect"),
            (["zk-audit", "--role", "verifier", "--ref", ref], "--listen"),
            (["attack", "inject", "--model", "m.json", "--region", str(region),
              "--out", str(tmp_path / "o.json")], "box region")):
        assert cli.main(argv) == 5
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and problem in last


def test_missing_file_exit_four(capsys):
    code = cli.main(["audit", "--model", "/nonexistent/m.json",
                     "--ref", "/nonexistent/r.csv"])
    assert code == 4
    capsys.readouterr()


def test_attack_inject_cli(workspace, capsys):
    out = workspace / "inj.json"
    code, doc = run(["attack", "inject", "--model", str(workspace / "mc.json"),
                     "--region", str(workspace / "d" / "region.json"),
                     "--shift", "0,2,0", "--out", str(out)], capsys)
    assert code == 0 and doc["shift"] == [0.0, 2.0, 0.0]
    load_model(out)


@pytest.fixture(scope="module")
def regression_data(tmp_path_factory):
    r = tmp_path_factory.mktemp("reg") / "r"
    assert cli.main(["gen-data", "regression", "--seed", "0", "--out", str(r)]) == 0
    return r


def test_attack_regression_defaults_show_the_attack(regression_data, capsys,
                                                    tmp_path):
    code, doc = run(["attack", "regression", "--data", str(regression_data),
                     "--out", str(tmp_path / "reg.json"), "--epochs", "100"],
                    capsys)
    assert code == 0
    assert doc["attacked"]["var_in_region"] > doc["standard"]["var_in_region"]
    for name in ("standard", "attacked"):
        assert doc[name]["var_in_region"] != doc[name]["var_outside"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_attack_regression_divergence_exits_five(regression_data, capsys,
                                                 tmp_path):
    # numpy's overflow warnings stay silent (any would raise here) and the
    # error names the regressor that diverged
    code = cli.main(["attack", "regression", "--data", str(regression_data),
                     "--out", str(tmp_path / "reg.json"), "--lr", "0.1",
                     "--momentum", "0.9", "--epochs", "100", "--seed", "0"])
    assert code == 5
    assert not (tmp_path / "reg.json").exists()
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: standard regressor diverged: non-finite parameter"


def test_zk_audit_over_tcp(workspace, capsys, tmp_path):
    """Full zk-audit round over localhost TCP with a thinned reference set."""
    ref_full = (workspace / "d" / "test.csv").read_text().splitlines()
    small = tmp_path / "small.csv"
    small.write_text("\n".join(ref_full[:13]) + "\n")
    schema = workspace / "d" / "schema.json"
    out = tmp_path / "verdict.json"
    port = "39123"

    results = {}

    def verifier():
        results["v"] = cli.main(["zk-audit", "--role", "verifier",
                                 "--listen", f":{port}", "--ref", str(small),
                                 "--schema", str(schema), "--alpha", "0.5",
                                 "--out", str(out)])

    tv = threading.Thread(target=verifier)
    tv.start()
    import time
    time.sleep(0.4)
    results["p"] = cli.main(["zk-audit", "--role", "prover",
                             "--connect", f"127.0.0.1:{port}",
                             "--model", str(workspace / "mc.json"),
                             "--ref", str(small), "--schema", str(schema),
                             "--alpha", "0.5"])
    tv.join()
    capsys.readouterr()
    assert results["p"] == results["v"] and results["p"] in (0, 2)
    doc = json.loads(out.read_text())
    assert doc["verdict"] is (results["p"] == 0)
    assert doc["runtime_sec_per_point"] > 0 and doc["bytes_per_point"] > 0
