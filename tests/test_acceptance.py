"""Acceptance gate: one test per top-level criterion, each printing a
single PASS/FAIL line with its measured numbers.  Tolerances are stated
inline; fixtures (pinned seeds) come from conftest.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from abstain_audit.calibration import (AuditConfig, audit_verdict, bin_index,
                                       reliability, report_from_scores,
                                       undersample_region)
from abstain_audit.data import (gen_gaussian_mixture, gen_regression_synth,
                                region_mask, regression_noise_std)
from abstain_audit.mirage import (MirageConfig, RegressionAttackConfig,
                                  finetune_mirage, finetune_regression_attack,
                                  train_gaussian_nll)
from abstain_audit.nets import (OptConfig, accuracy, gaussian_predict,
                                init_gaussian_head, init_model, predict_probs)
from abstain_audit.widgets import LogitShift, deepen, inject_region_shift
from abstain_audit.zkaudit import (FixedPointParams, fx_audit, fx_confidence,
                                   fx_forward, quantize_model, quantize_vec,
                                   run_local_audit)
from cheating_prover import STRATEGIES, run_cheating_audit
from conftest import ATTACK_OPT, PIPELINE_RUNTIME, UNDERSAMPLE_SEED

FP = FixedPointParams()
EPS_BIN = bin_index(0.15 + (1 - 0.15) / 3, 15)  # bin holding eps + (1-eps)/C


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_gaussian_attack(gauss, baseline_model, calibrated_model,
                                      attacked_model):
    _, test, region = gauss
    bacc = accuracy(baseline_model, test)
    bece = reliability(calibrated_model, test, bins=15).ece
    aacc = accuracy(attacked_model, test)
    mask = region_mask(test, region)
    racc = accuracy(attacked_model, test.take(np.flatnonzero(mask)))
    rep = reliability(attacked_model, test, bins=15)
    runtime = PIPELINE_RUNTIME.get("attack", float("nan"))
    checks = {
        "baseline_acc>=0.96": bacc >= 0.96,
        "baseline_ece<=0.05": bece <= 0.05,
        "|acc_delta|<=1pt": abs(bacc - aacc) <= 0.01,
        "region_acc>=0.99": racc >= 0.99,
        "attacked_ece>=0.06": rep.ece >= 0.06,
        "eps_bin_cale>=0.25": rep.cale[EPS_BIN] >= 0.25,
        "attack_runtime<=300s": runtime <= 300,
    }
    failed = [k for k, v in checks.items() if not v]
    detail = (f"acc {bacc:.4f}->{aacc:.4f}, ece {bece:.4f}->{rep.ece:.4f}, "
              f"region acc {racc:.4f}, eps-bin CalE {rep.cale[EPS_BIN]:.4f}, "
              f"attack {runtime:.0f}s; "
              + (", ".join(failed) if failed else "all subchecks"))
    report("criterion 1 (attack reproduction)", all(checks.values()), detail)


def test_criterion_02_eps_zero_ablation(gauss, baseline_model, calibrated_model):
    train, test, region = gauss
    cfg = MirageConfig(epsilon=0.0, lam=0.9, opt=ATTACK_OPT)
    attacked = finetune_mirage(calibrated_model, train, region, cfg)
    mask = region_mask(test, region)
    racc = accuracy(attacked, test.take(np.flatnonzero(mask)))
    delta = abs(accuracy(baseline_model, test) - accuracy(attacked, test))
    ok = racc < 0.60 and delta <= 0.04
    report("criterion 2 (eps=0 ablation)", ok,
           f"region acc {racc:.4f} (<0.60), full-test delta {delta * 100:.2f} pts (<=4)")


def test_criterion_03_widget_exactness(rng):
    region = gen_gaussian_mixture(0)[2]
    model = deepen(init_model([2, 32, 3], seed=3), 3)
    c = np.array([0.0, 1.7, 0.2])
    shifted = inject_region_shift(model, region, LogitShift(c))
    from abstain_audit.nets import forward
    pts = rng.uniform(-4, 10, size=(40_000, 2))
    outside = pts[~region.contains(pts)][:10_000]
    d_out = np.abs(forward(shifted, outside) - forward(model, outside)).max()
    lo = np.array([2.0, 0.0])
    hi = np.array([2.75, 1.5])
    w = hi - lo
    band = rng.uniform(lo + 0.2 * w, hi - 0.2 * w, size=(10_000, 2))
    d_band = forward(shifted, band) - forward(model, band)
    rel = np.abs(d_band - c).max() / np.abs(c).max()
    zero = inject_region_shift(model, region, LogitShift(np.zeros(3)))
    d_zero = np.abs(forward(zero, pts) - forward(model, pts)).max()
    ok = d_out <= 1e-9 and rel <= 1e-6 and d_zero <= 1e-9
    report("criterion 3 (widget exactness)", ok,
           f"outside max {d_out:.2e} (<=1e-9), band rel {rel:.2e} (<=1e-6), "
           f"zero-shift max {d_zero:.2e} (<=1e-9)")


def test_criterion_04_ece_oracle():
    from test_calibration import naive_ece
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        confs = rng.uniform(0, 1, size=n)
        corr = rng.integers(0, 2, size=n)
        bins = int(rng.choice([5, 10, 15]))
        worst = max(worst, abs(report_from_scores(confs, corr, bins).ece
                               - naive_ece(confs, corr, bins)))
    worked = report_from_scores([0.6, 0.7, 0.9, 0.95], [1, 0, 1, 1], 10).ece
    ok = worst <= 1e-12 and abs(worked - 0.3125) <= 1e-12
    report("criterion 4 (ECE oracle equivalence)", ok,
           f"max dev {worst:.2e} over 1000 instances (<=1e-12), "
           f"worked example {worked}")


def test_criterion_05_zk_completeness():
    agree = 0
    plain_frames_ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dims = [2, int(rng.integers(3, 6)), int(rng.integers(2, 4))]
        qm = quantize_model(init_model(dims, seed=seed), FP)
        n = int(rng.integers(4, 10))
        X = rng.normal(0, 2, size=(n, 2))
        y = rng.integers(0, dims[-1], size=n)
        cfg = AuditConfig(bins=15, alpha=float(rng.uniform(0.02, 0.6)))
        ok_fx, _ = fx_audit(qm, X, y, cfg, FP)
        pr, vr, chan = run_local_audit(qm, (X, y), cfg, FP)
        if not pr.aborted and pr.verdict == vr.verdict == ok_fx:
            agree += 1
        disclosures = [f.disclosure for f in chan.transcript]
        if disclosures.count("plaintext-value") != 1:
            plain_frames_ok = False
    ok = agree == 50 and plain_frames_ok
    report("criterion 5 (ZK completeness)", ok,
           f"{agree}/50 verdicts agree with plaintext oracle; "
           f"single plaintext frame per transcript: {plain_frames_ok}")


def test_criterion_06_zk_soundness(monkeypatch):
    qm = quantize_model(init_model([2, 3, 2], seed=0), FP)
    cfg = AuditConfig(bins=15, alpha=0.1)
    aborted = 0
    total = 0
    for si, strategy in enumerate(STRATEGIES):
        for seed in range(250):
            rng = np.random.default_rng(si * 1000 + seed)
            X = rng.normal(0, 2, size=(2, 2))
            y = rng.integers(0, 2, size=2)
            pr, vr, _ = run_cheating_audit(monkeypatch, strategy, seed % 2,
                                           qm, (X, y), cfg, FP)
            total += 1
            if pr.aborted and vr.aborted:
                aborted += 1
    ok = aborted == total == 1000
    report("criterion 6 (ZK soundness)", ok,
           f"{aborted}/{total} tampered runs aborted (need 1000/1000)")


def test_criterion_07_fixed_point_fidelity(attacked_model):
    rng = np.random.default_rng(1)
    qm = quantize_model(attacked_model, FP)
    X = rng.uniform(-1, 9, size=(10_000, 2))
    probs = predict_probs(attacked_model, X)
    max_dev = 0.0
    argmax_bad = 0
    for x, p in zip(X, probs):
        logits = fx_forward(qm, quantize_vec(x, FP), FP)
        p_hat, y_hat, _ = fx_confidence(logits, FP)
        max_dev = max(max_dev, abs(p_hat / FP.scale - p.max()))
        top2 = np.sort(p)[-2:]
        if y_hat != int(p.argmax()) and top2[1] - top2[0] >= 2.0**-8:
            argmax_bad += 1
    ok = max_dev <= 2.0**-8 and argmax_bad == 0
    report("criterion 7 (fixed-point fidelity)", ok,
           f"max |p_fx - p_float| {max_dev:.2e} (<=2^-8={2.0 ** -8:.2e}), "
           f"argmax mismatches outside tie band: {argmax_bad}")


def test_criterion_08_undersampling_trend(gauss, attacked_model):
    _, test, region = gauss
    rhos = [0.0, 0.25, 0.5, 0.75, 1.0]
    cales = []
    for rho in rhos:
        ref = undersample_region(test, region, rho, seed=UNDERSAMPLE_SEED)
        rep = reliability(attacked_model, ref, bins=15)
        cales.append(float(rep.cale[EPS_BIN]))
    rho_corr = spearmanr(rhos, cales).statistic
    ratio = cales[-1] / cales[0]
    ok = ratio <= 0.5 and rho_corr <= -0.8
    report("criterion 8 (undersampling trend)", ok,
           f"eps-bin CalE {['%.3f' % c for c in cales]}, "
           f"rho=1/rho=0 ratio {ratio:.2f} (<=0.5), spearman {rho_corr:.2f} (<=-0.8)")


def test_criterion_09_regression_attack():
    full, region = gen_regression_synth(11, 2000)
    n_test = len(full) // 5
    test = full.take(np.arange(n_test))
    train = full.take(np.arange(n_test, len(full)))
    opt = OptConfig(epochs=800, lr=0.05, batch_size=64, seed=2)
    standard = train_gaussian_nll(init_gaussian_head([1, 32], seed=1), train, opt)
    cfg = RegressionAttackConfig(
        var_target=1.0, lam=1.0,
        opt=OptConfig(epochs=400, lr=0.05, batch_size=64, seed=3))
    attacked = finetune_regression_attack(standard.copy(), train, region, cfg)
    mask = region_mask(test, region)
    _, var_s = gaussian_predict(standard, test.X)
    _, var_a = gaussian_predict(attacked, test.X)
    ratio_in = var_a[mask].mean() / var_s[mask].mean()
    dev_out = abs(var_a[~mask].mean() / var_s[~mask].mean() - 1)
    ok = ratio_in >= 2.0 and dev_out <= 0.5
    report("criterion 9 (regression attack)", ok,
           f"in-region var ratio {ratio_in:.2f} (>=2.0), "
           f"outside deviation {dev_out:.1%} (<=50%)")


def test_criterion_10_zk_performance(gauss, attacked_model):
    _, test, _ = gauss
    qm = quantize_model(attacked_model, FP)
    cfg = AuditConfig(bins=15, alpha=0.10)
    t0 = time.perf_counter()
    pr, vr, _ = run_local_audit(qm, (test.X, test.y), cfg, FP)
    elapsed = time.perf_counter() - t0
    ok_fx, _ = fx_audit(qm, test.X, test.y, cfg, FP)
    ok = elapsed <= 600 and not pr.aborted and vr.verdict == ok_fx
    report("criterion 10 (ZK performance envelope)", ok,
           f"420-point audit {elapsed:.0f}s (<=600s), "
           f"{vr.sec_per_point * 1000:.0f} ms/pt, "
           f"{vr.bytes_per_point / 1024:.0f} KiB/pt [informational], "
           f"verdict matches plaintext: {vr.verdict == ok_fx}")
