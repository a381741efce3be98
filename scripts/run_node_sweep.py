#!/usr/bin/env python3
"""Hidden-layer width sweep and optimizer comparison on one synthetic encoder.

Part 1 trains one network per hidden width (10..110 by default) and records
the final training MSE per width.  Part 2 trains a fixed-width network with
both optimizers at the same iteration budget and dumps the per-iteration MSE
curves, so the convergence behaviour can be plotted side by side.

Usage:
    python scripts/run_node_sweep.py --outdir sweep [--max-iterations 10000]
"""

import argparse
import sys
import time
from pathlib import Path

from rescomp.caldata import error_profile, partition_even_odd, write_csv
from rescomp.optim import OPTIMIZERS, TrainingConfig
from rescomp.pipeline import ExperimentConfig, fit_network, write_history_csv
from rescomp.simgen import archetype_spec, synthesize

SWEEP_WIDTHS = range(10, 111, 10)


def main(argv=None) -> int:
    d = ExperimentConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="sweep")
    parser.add_argument("--archetype", type=int, default=1, choices=(1, 2, 3, 4))
    parser.add_argument("--max-iterations", type=int, default=d.training.max_iterations)
    parser.add_argument("--hidden", type=int, default=d.hidden,
                        help="width for the optimizer comparison")
    parser.add_argument("--seed", type=int, default=d.training.seed)
    parser.add_argument("--skip-sweep", action="store_true",
                        help="only run the optimizer comparison")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    cal = synthesize(archetype_spec(args.archetype), grid_step_deg=1.0)
    train_set, _test = partition_even_odd(cal)
    profile = error_profile(train_set)
    training = TrainingConfig(max_iterations=args.max_iterations, seed=args.seed)

    if not args.skip_sweep:
        print(f"width sweep over {tuple(SWEEP_WIDTHS)} ...")
        start = time.perf_counter()
        results = []
        for j in SWEEP_WIDTHS:
            _net, history, _report = fit_network(
                profile, ExperimentConfig(hidden=j, training=training))
            # LM accepts only improving steps, so its last MSE is the returned net's
            final = history.mse_per_iteration[-1]
            results.append((j, final))
            print(f"  J = {j:4d}: final MSE {final:.4e}")
        path = outdir / "width_sweep.csv"
        write_csv(path, "hidden_nodes,final_mse", results)
        print(f"wrote {path} ({time.perf_counter() - start:.0f}s)")

    print(f"optimizer comparison at width {args.hidden} ...")
    for name in OPTIMIZERS:
        start = time.perf_counter()
        cfg = ExperimentConfig(hidden=args.hidden, optimizer=name, training=training)
        _trained, history, _report = fit_network(profile, cfg)
        path = outdir / f"convergence_{name}.csv"
        write_history_csv(path, history)
        print(
            f"  {name}: {history.iterations_run} iterations, "
            f"final MSE {history.mse_per_iteration[-1]:.4e} "
            f"({time.perf_counter() - start:.0f}s) -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
