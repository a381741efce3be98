#!/usr/bin/env python3
"""Benchmark of rescomp: fit and correction workloads, end to end or traced.

    python3 bench/run.py --workload fit-lm --seed 1 --seconds 34 --trace 0

Run it from a checkout of the repository; the program is imported from `src/`.
Workloads: fit-lm, fit-prune, correct-stream (see bench/NOTES.md).
Each run fits compensation models, streams seeded encoder angles through them
with `rescomp correct --stdin`, checks every output, and prints one line per
metric, a fingerprint of the machine and software, and as the last line a JSON
object {"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs each operation untraced and then with
spans around each layer's public functions, and reports per-layer metrics and
the tracing overhead.  The exit status is 0 whenever a result is printed, also
when a check failed (then "correct" is false), and 2 when the program is
missing.
"""

import os

# The LM history depends on the BLAS thread count, so this process and every
# process it starts use one thread; the pin must precede the import of numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fingerprint() -> dict:
    import numpy
    import scipy

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def process_threads():
        try:
            with open("/proc/self/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("Threads:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rescomp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": process_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-lm", "fit-prune", "correct-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rescomp" / "__init__.py").is_file():
        print(f"error: no rescomp package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import session

    metrics, tally, details = session.run(args.workload, args.seed, args.seconds, bool(args.trace))
    catalog = session.PER_LAYER if args.trace else session.END_TO_END
    correct = tally.failed == 0 and not tally.problems and set(metrics) >= set(catalog)
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, unit in catalog.items():
        print(f"{name:48s} {metrics.get(name, float('nan')):>16.6g} {unit}")
    print(f"{'failed_frac':48s} {tally.failed / max(tally.attempted, 1):>16.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} operations)")
    print("details:", json.dumps(details))
    print("fingerprint:", json.dumps(fingerprint()))
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in catalog.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
