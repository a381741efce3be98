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

from rescomp.caldata import error_profile, partition_even_odd
from rescomp.network import dataset_from_profile, init_network
from rescomp.optim import (
    DEFAULT_SWEEP_NODES,
    OPTIMIZERS,
    TrainingConfig,
    node_sweep,
    trainer,
)
from rescomp.pipeline import write_history_csv
from rescomp.simgen import archetype_spec, synthesize


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="sweep")
    parser.add_argument("--archetype", type=int, default=1, choices=(1, 2, 3, 4))
    parser.add_argument("--max-iterations", type=int, default=10000)
    parser.add_argument("--hidden", type=int, default=80,
                        help="width for the optimizer comparison")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--skip-sweep", action="store_true",
                        help="only run the optimizer comparison")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    cal = synthesize(archetype_spec(args.archetype), grid_step_deg=1.0)
    train_set, _test = partition_even_odd(cal)
    profile = error_profile(train_set)
    probe = init_network(2, seed=args.seed)
    data = dataset_from_profile(profile, probe)
    cfg = TrainingConfig(max_iterations=args.max_iterations, seed=args.seed)

    if not args.skip_sweep:
        print(f"width sweep over {DEFAULT_SWEEP_NODES} ...")
        start = time.perf_counter()
        results = node_sweep(data, cfg=cfg)
        path = outdir / "width_sweep.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("hidden_nodes,final_mse\n")
            for width, final in results:
                fh.write(f"{width},{final!r}\n")
                print(f"  J = {width:4d}: final MSE {final:.4e}")
        print(f"wrote {path} ({time.perf_counter() - start:.0f}s)")

    print(f"optimizer comparison at width {args.hidden} ...")
    for name in OPTIMIZERS:
        net0 = init_network(args.hidden, args.seed)
        start = time.perf_counter()
        _trained, history = trainer(name)(net0, data, cfg)
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
