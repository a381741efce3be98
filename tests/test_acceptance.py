"""Acceptance suite.

One test per acceptance criterion, each printing a single [PASS]/[FAIL]
line with the measured numbers (run with `pytest -s` to see them).  The
heavyweight trainings are shared, deterministic session fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from rescomp.caldata import ErrorProfile, error_profile, partition_even_odd, stats
from rescomp.cli import main as cli_main
from rescomp.errors import CorruptFile, UnsupportedVersion
from rescomp.fourier import fit_fourier, harmonic_spectrum, select_top
from rescomp.network import Dataset, forward_batch, mse
from rescomp.network import gradient as mse_gradient
from rescomp.pipeline import (
    CompensationModel,
    ExperimentConfig,
    evaluate,
    fit_network,
    load_model,
    save_model,
)
from rescomp.prune import effective_rank, prune_and_retrain, singular_values
from rescomp.simgen import (
    ARCHETYPE_MAE_TARGETS,
    archetype_spec,
    spec_to_json,
    synthesize,
)
from tests.conftest import FULL_BUDGET, heldout_residuals, make_net


def report_line(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="session")
def e2e_runs(arch1_data, arch1_lm80, training_seconds):
    """Per-archetype end-to-end results: trained network report + Fourier report."""
    runs = {}
    # archetype 1 reuses the shared training
    start = time.perf_counter()
    cal = arch1_data["cal"]
    test_set = arch1_data["test_set"]
    train_prof = arch1_data["train_prof"]
    ann_report = evaluate(CompensationModel("arch1", arch1_lm80[0]), test_set)
    orders = select_top(harmonic_spectrum(train_prof), 10)
    fourier_report = evaluate(
        CompensationModel("arch1", fit_fourier(train_prof, orders)), test_set
    )
    elapsed = time.perf_counter() - start + training_seconds["arch1_lm80"]
    runs[1] = {
        "pre": stats(error_profile(cal)),
        "ann": ann_report,
        "fourier": fourier_report,
        "seconds": elapsed,
    }
    for k in (2, 3, 4):
        start = time.perf_counter()
        cal = synthesize(archetype_spec(k), grid_step_deg=1.0, encoder_id=f"arch{k}")
        train_set, test_set = partition_even_odd(cal)
        train_prof = error_profile(train_set)
        trained, _hist, _report = fit_network(train_prof, ExperimentConfig(training=FULL_BUDGET))
        ann_report = evaluate(CompensationModel(f"arch{k}", trained), test_set)
        orders = select_top(harmonic_spectrum(train_prof), 10)
        fourier_report = evaluate(
            CompensationModel(f"arch{k}", fit_fourier(train_prof, orders)),
            test_set,
        )
        runs[k] = {
            "pre": stats(error_profile(cal)),
            "ann": ann_report,
            "fourier": fourier_report,
            "seconds": time.perf_counter() - start,
        }
    return runs


def test_criterion_gradient_correctness():
    """Analytic gradient vs central finite differences on 100 random nets."""
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        hidden = int(rng.integers(1, 5))
        rng.integers(1 << 30)  # an unused seed draw per net: keeps the 100 nets fixed
        net = make_net(rng.uniform(-3, 3, 3 * hidden + 1))
        data = Dataset(rng.uniform(0, 1, (1, 1)), rng.uniform(0.05, 0.95, (1, 1)))
        analytic = mse_gradient(net.params, data)
        p0 = net.params
        for q in range(len(p0)):
            plus, minus = p0.copy(), p0.copy()
            plus[q] += h
            minus[q] -= h
            fd = (mse(plus, data) - mse(minus, data)) / (2 * h)
            err = abs(analytic[q] - fd) / max(abs(fd), 1e-10 / 1e-6)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-6 and elapsed < 10.0
    report_line(
        "gradient correctness",
        passed,
        f"worst component error {worst:.2e} (limit 1e-6), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_forward_oracle():
    """Hand-computed 1:2:1 forward pass to 1e-12."""
    net = make_net(np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
    got = forward_batch(net, np.array([[0.0]]))[0, 0]
    expected = 1.0 / (1.0 + math.exp(-1.0))
    err = abs(got - expected)
    report_line(
        "forward-pass oracle",
        err <= 1e-12,
        f"|{got:.16f} - {expected:.16f}| = {err:.2e} (limit 1e-12)",
    )


def test_criterion_lm_beats_backprop(arch1_data, arch1_lm80, arch1_backprop, training_seconds):
    """Equal 10k-iteration budget on the seed-42 training grid."""
    data = arch1_data["dataset"]
    lm_mse = mse(arch1_lm80[0].params, data)
    bp_mse = mse(arch1_backprop[0].params, data)
    elapsed = training_seconds["arch1_lm80"] + training_seconds["arch1_backprop"]
    passed = lm_mse <= bp_mse and lm_mse <= 0.017 and elapsed < 600.0
    report_line(
        "lm beats backprop",
        passed,
        f"MSE lm {lm_mse:.3e} <= backprop {bp_mse:.3e}, lm <= 0.017, "
        f"{elapsed:.0f}s (limit 600s)",
    )


def test_criterion_end_to_end_compensation(e2e_runs):
    """Four archetypes: pre-MAE on target, held-out residuals within bounds."""
    details = []
    passed = True
    total_seconds = 0.0
    for k in (1, 2, 3, 4):
        run = e2e_runs[k]
        pre_mae = run["pre"].mae_arcmin
        post = run["ann"].post_stats
        max_abs = run["ann"].max_abs_residual_arcmin
        total_seconds += run["seconds"]
        ok = (
            abs(pre_mae - ARCHETYPE_MAE_TARGETS[k - 1]) <= 0.1
            and post.mae_arcmin <= 0.25
            and max_abs <= 0.65
            and pre_mae / post.mae_arcmin >= 4.0
        )
        passed = passed and ok
        details.append(
            f"arch{k} pre {pre_mae:.3f}' -> post {post.mae_arcmin:.3f}' "
            f"(max |r| {max_abs:.3f}')"
        )
    passed = passed and total_seconds < 2400.0
    report_line(
        "end-to-end compensation",
        passed,
        "; ".join(details) + f"; {total_seconds:.0f}s (limit 2400s)",
    )


def test_criterion_ann_fourier_parity(e2e_runs):
    """|MAE_ann - MAE_fourier| <= 0.1' on each archetype, both models usable."""
    gaps = {
        k: abs(
            e2e_runs[k]["ann"].post_stats.mae_arcmin
            - e2e_runs[k]["fourier"].post_stats.mae_arcmin
        )
        for k in (1, 2, 3, 4)
    }
    fourier_ok = all(
        e2e_runs[k]["fourier"].post_stats.mae_arcmin <= 0.25 for k in (1, 2, 3, 4)
    )
    passed = all(g <= 0.1 for g in gaps.values()) and fourier_ok
    report_line(
        "ann/fourier parity",
        passed,
        ", ".join(f"arch{k} gap {g:.4f}'" for k, g in gaps.items())
        + f" (limit 0.1'); fourier MAE <= 0.25': {fourier_ok}",
    )


def test_criterion_fourier_exactness():
    """Noiseless profile from orders {0,1,2,16}: coefficients back to 1e-9."""
    terms = ((0, 0.40, 0.40), (1, 2.00, 0.70), (2, 1.00, 2.10), (16, 0.50, -1.30))
    points = []
    for i in range(180):
        theta = i * 2.0
        t = math.radians(theta)
        points.append((theta, sum(a * math.cos(n * t + p) for n, a, p in terms)))
    profile = ErrorProfile(tuple(points))

    model = fit_fourier(profile, [0, 1, 2, 16])
    worst = abs(model.a0 - 0.40 * math.cos(0.40))
    by_order = {t.n: t for t in model.terms}
    for n, amp, ph in terms[1:]:
        worst = max(worst, abs(by_order[n].a - amp * math.cos(ph)))
        worst = max(worst, abs(by_order[n].b - (-amp * math.sin(ph))))

    top4 = set(select_top(harmonic_spectrum(profile), 4))
    passed = worst <= 1e-9 and top4 == {0, 1, 2, 16}
    report_line(
        "fourier exactness",
        passed,
        f"worst coefficient error {worst:.2e} (limit 1e-9), top orders {sorted(top4)}",
    )


def test_criterion_svd_pruning(arch1_data, arch1_lm80):
    """(a) duplicated columns cap the effective rank; (b) prune preserves accuracy."""
    rng = np.random.default_rng(55)
    base = rng.normal(size=(180, 60))
    duplicated = np.hstack([base, base[:, :20]])
    rank_a = effective_rank(singular_values(duplicated))

    pruned_params, prune_rep = prune_and_retrain(
        arch1_data["dataset"], initial_hidden=80, cfg=FULL_BUDGET
    )
    pruned_net = make_net(pruned_params)
    test_prof = arch1_data["test_prof"]
    mae_full = float(np.mean(np.abs(heldout_residuals(arch1_lm80[0], test_prof))))
    mae_pruned = float(np.mean(np.abs(heldout_residuals(pruned_net, test_prof))))
    gap = abs(mae_full - mae_pruned)

    passed = rank_a <= 60 and prune_rep.pruned_hidden < 80 and gap <= 0.05
    report_line(
        "svd pruning",
        passed,
        f"duplicated-column rank {rank_a} (limit 60), width 80 -> {prune_rep.pruned_hidden}, "
        f"held-out MAE gap {gap:.4f}' (limit 0.05')",
    )


def test_criterion_persistence(tmp_path, arch1_lm80):
    """Bit-exact round trip of the trained 1:80:1 net; bad files rejected."""
    model = CompensationModel("arch1", arch1_lm80[0])
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    bit_exact = np.array_equal(loaded.payload.params, arch1_lm80[0].params)

    blob = path.read_text()
    (tmp_path / "truncated.json").write_text(blob[: len(blob) // 3])
    try:
        load_model(tmp_path / "truncated.json")
        corrupt_rejected = False
    except CorruptFile:
        corrupt_rejected = True

    doc = json.loads(blob)
    doc["format_version"] = 999
    (tmp_path / "newer.json").write_text(json.dumps(doc))
    try:
        load_model(tmp_path / "newer.json")
        version_rejected = False
    except UnsupportedVersion:
        version_rejected = True

    passed = bit_exact and corrupt_rejected and version_rejected
    report_line(
        "persistence",
        passed,
        f"241 params bit-exact: {bit_exact}, corrupt rejected: {corrupt_rejected}, "
        f"version rejected: {version_rejected}",
    )


def test_criterion_determinism(tmp_path):
    """run-experiment twice with fixed flags: byte-identical bundles."""
    spec_path = tmp_path / "spec.json"
    spec_to_json(archetype_spec(1), spec_path)
    flags = [
        "run-experiment", "--spec", str(spec_path), "--hidden", "8",
        "--max-iterations", "60", "--stall-window", "20", "--seed", "42",
        "--encoder-id", "det",
    ]
    assert cli_main(flags + ["--outdir", str(tmp_path / "a")]) == 0
    assert cli_main(flags + ["--outdir", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names
    )
    passed = identical and len(names) >= 8
    report_line(
        "determinism",
        passed,
        f"{len(names)} report files byte-identical across runs: {identical}",
    )
