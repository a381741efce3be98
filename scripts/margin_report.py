#!/usr/bin/env python3
"""Margin report: how far each trained 1:80:1 net stays inside the accuracy bounds.

For every archetype and init seed this fits the network as `run-experiment`
does (Levenberg-Marquardt on the even degrees of the archetype's 1-degree
grid) and prints:

- the held-out MAE and max |residual| on the odd degrees, with the encoder
  angle of the max;
- the dense max: at the middle of each of the 65 536 LSB cells, the table
  angle is displaced by the noiseless closed-form error, quantized to 16 bits,
  corrected with the net and compared with the table angle;
- the worst held-out max over 10 later calibration epochs (the same spec at
  noise seeds 1000-1009, odd degrees).

It then prints, for each bound, how many fits meet it and the smallest margin
(bound minus worst value).  Fits run in two processes at one BLAS thread,
since LM results depend on the thread count.  With `--check` the exit status
is 1 when any fit is past any of the four bounds: a held-out MAE above 0.25',
or a held-out, dense or 10-epoch max above 0.65'.

Usage:
    python scripts/margin_report.py [--check] [--hidden 80] [--max-iterations 10000]
"""

import os

# LM histories depend on the BLAS thread count; the pin must precede numpy's
# import, and the worker processes inherit it
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

import numpy as np  # noqa: E402

from rescomp.caldata import ARCMIN_PER_DEG, error_profile, partition_even_odd  # noqa: E402
from rescomp.config import ExperimentConfig, TrainingConfig  # noqa: E402
from rescomp.experiment import fit_network  # noqa: E402
from rescomp.pipeline import CompensationModel, correct, evaluate  # noqa: E402
from rescomp.simgen import (  # noqa: E402
    LSB_DEG,
    archetype_spec,
    harmonic_error_arcmin,
    quantize16,
    synthesize,
)

ARCHETYPES = (1, 2, 3, 4)
INIT_SEEDS = (*range(10), 42)
EPOCH_SEEDS = range(1000, 1010)
MAE_BOUND = 0.25
MAX_BOUND = 0.65
# (column, bound, label) of each bound the summary reports
BOUNDS = (
    ("heldout_mae", MAE_BOUND, "held-out MAE"),
    ("heldout_max", MAX_BOUND, "held-out max"),
    ("dense_max", MAX_BOUND, "dense max"),
    ("epoch_max", MAX_BOUND, "10-epoch max"),
)


def dense_audit(model: CompensationModel, spec) -> tuple[float, float]:
    """Largest |corrected - table| (arc-min) over the middles of all 16-bit
    cells, and the table angle (degrees) where it occurs."""
    table = (np.arange(65536) + 0.5) * LSB_DEG
    reading = quantize16(table + harmonic_error_arcmin(spec.terms, table) / ARCMIN_PER_DEG)
    residual = (correct(model, reading) - table + 180.0) % 360.0 - 180.0
    worst = int(np.argmax(np.abs(residual)))
    return float(abs(residual[worst]) * ARCMIN_PER_DEG), float(table[worst])


def fit_row(archetype: int, seed: int, hidden: int, max_iterations: int) -> dict:
    """Fit one net and measure it on the held-out grid, densely and over later epochs."""
    spec = archetype_spec(archetype)
    cal = synthesize(spec, grid_step_deg=1.0, encoder_id=f"arch{archetype}")
    train_set, test_set = partition_even_odd(cal)
    cfg = ExperimentConfig(hidden=hidden,
                           training=TrainingConfig(max_iterations=max_iterations, seed=seed))
    start = time.perf_counter()
    net, history, _ = fit_network(error_profile(train_set), cfg)
    seconds = time.perf_counter() - start
    model = CompensationModel(cal.encoder_id, net)
    report = evaluate(model, test_set)
    worst = int(np.argmax(np.abs(report.rows[:, 3])))
    dense_max, dense_at = dense_audit(model, spec)
    epoch_max = max(
        evaluate(model, partition_even_odd(synthesize(
            dataclasses.replace(spec, seed=s), grid_step_deg=1.0))[1]).max_abs_residual_arcmin
        for s in EPOCH_SEEDS
    )
    return {
        "archetype": archetype, "seed": seed,
        "iterations": history.iterations_run, "stop": history.stop_reason.value,
        "fit_s": seconds,
        "heldout_mae": report.post_stats.mae_arcmin,
        "heldout_max": report.max_abs_residual_arcmin, "heldout_at": float(report.rows[worst, 0]),
        "dense_max": dense_max, "dense_at": dense_at,
        "epoch_max": epoch_max,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hidden", type=int, default=ExperimentConfig().hidden)
    parser.add_argument("--max-iterations", type=int, default=TrainingConfig().max_iterations)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a fit is past a bound: " + ", ".join(
                            f"{label} > {limit}'" for _, limit, label in BOUNDS))
    args = parser.parse_args(argv)

    fit = functools.partial(fit_row, hidden=args.hidden, max_iterations=args.max_iterations)
    archetypes, seeds = zip(*[(k, s) for k in ARCHETYPES for s in INIT_SEEDS])
    start = time.perf_counter()
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        rows = list(pool.map(fit, archetypes, seeds))
    elapsed = time.perf_counter() - start

    print(f"1:{args.hidden}:1 LM, max {args.max_iterations} iterations, one BLAS thread, "
          f"two processes, {elapsed:.1f} s")
    print("arch seed  iters stop            fit_s  mae'    max'   at_deg   dense'  at_deg"
          "   epochs'")
    for r in rows:
        print(f"{r['archetype']:4d} {r['seed']:4d} {r['iterations']:6d} {r['stop']:14s} "
              f"{r['fit_s']:6.2f}  {r['heldout_mae']:.4f} {r['heldout_max']:.4f} "
              f"{r['heldout_at']:8.3f} {r['dense_max']:.4f} {r['dense_at']:8.3f} "
              f"{r['epoch_max']:.4f}")
    print("bound              limit  pass   smallest margin")
    for key, limit, label in BOUNDS:
        passed = sum(r[key] <= limit for r in rows)
        worst = max(rows, key=lambda r: r[key])
        print(f"{label:16s} {limit:6.2f}'  {passed:2d}/{len(rows):<2d}  {limit - worst[key]:+.4f}' "
              f"(arch {worst['archetype']} seed {worst['seed']})")
    failed = [r for r in rows if any(r[key] > limit for key, limit, _ in BOUNDS)]
    if args.check and failed:
        print(f"check failed: {len(failed)} fit(s) break a bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
