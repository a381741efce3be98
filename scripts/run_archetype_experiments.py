#!/usr/bin/env python3
"""Run the full compensation pipeline on the four synthetic encoder archetypes.

For each archetype this synthesizes a 1-degree calibration grid, trains the
1:80:1 network with Levenberg-Marquardt on the even degrees, fits the top-10
Fourier baseline, evaluates both on the held-out odd degrees, and writes a
report bundle per archetype plus a combined pre/post comparison table.

Usage:
    python scripts/run_archetype_experiments.py --outdir results [--max-iterations 10000]
"""

import argparse
import sys
import time
from pathlib import Path

from rescomp.caldata import write_csv
from rescomp.config import ExperimentConfig, TrainingConfig
from rescomp.experiment import run_experiment
from rescomp.simgen import archetype_spec, synthesize


def main(argv=None) -> int:
    d = ExperimentConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--hidden", type=int, default=d.hidden)
    parser.add_argument("--max-iterations", type=int, default=d.training.max_iterations)
    parser.add_argument("--seed", type=int, default=d.training.seed)
    parser.add_argument("--prune", action="store_true",
                        help="also prune/retrain each network")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    training = TrainingConfig(max_iterations=args.max_iterations, seed=args.seed)
    rows = []
    for k in range(1, 5):
        encoder_id = f"archetype-{k}"
        cal = synthesize(archetype_spec(k), grid_step_deg=1.0, encoder_id=encoder_id)
        cfg = ExperimentConfig(hidden=args.hidden, prune=args.prune, training=training)
        start = time.perf_counter()
        result = run_experiment(cal, outdir / encoder_id, cfg)
        elapsed = time.perf_counter() - start
        pre = result.pre_full_stats
        ann = result.ann_report.post_stats
        fou = result.fourier_report.post_stats
        rows.append((encoder_id, *(f"{value:.4f}" for s in (pre, fou, ann)
                                   for value in (s.mae_arcmin, s.rms_arcmin))))
        print(
            f"{encoder_id}: pre {pre.mae_arcmin:.2f}/{pre.rms_arcmin:.2f}  "
            f"fourier {fou.mae_arcmin:.2f}/{fou.rms_arcmin:.2f}  "
            f"ann {ann.mae_arcmin:.2f}/{ann.rms_arcmin:.2f}  (MAE/RMS arc-min, {elapsed:.0f}s)"
        )

    summary = outdir / "summary.csv"
    write_csv(summary, "encoder_id,pre_mae,pre_rms,fourier_mae,fourier_rms,ann_mae,ann_rms", rows)
    print(f"wrote {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
