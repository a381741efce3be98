#!/usr/bin/env python3
"""In-process A/B timing of two rescomp source trees' training, prediction and stream paths.

Loads the `rescomp` package of two source trees (`--base` and `--change`,
each a directory holding `rescomp/`) into one process under different
module names, pins the process to one CPU and one BLAS thread, and then
alternates between the trees for `--rounds` rounds: each round times every
case once per tree, with the tree that goes first swapped from round to
round.  The cases are the fits the benchmark's workloads run, on the
even-degree training half of a simulated archetype (180 patterns):

    gd-80    gradient descent, 1:80:1, archetype 3, 1 000 iterations
    lm-80    Levenberg-Marquardt, 1:80:1, archetype 1, 300 iterations
    lm-40    Levenberg-Marquardt, 1:40:1, archetype 2, 600 iterations
    lm-6     Levenberg-Marquardt, 1:6:1, archetype 2, 600 iterations
    prune-40 Levenberg-Marquardt, 1:40:1 with SVD prune and retrain,
             archetype 2, 600 iterations per fit

`pipeline.predict_error` of a seeded 1:J:1 model on 1 024 angles (one
batch call of several row chunks, a quarter of a 4 096-line `correct --stdin`
block) at J = 6, 40 and 80, each sample a run of calls, and each tree's
`cli.main(["correct", "--model", M, "--stdin"])` over the same 6 000 seeded
16-bit codes, for a 1:80:1 net and a 10-term Fourier model (stream-ann-80,
stream-fourier-10), each sample a few runs of the stream.  The seeded models
are written once as version-1 model files, and each tree reads them with its
own loader.  Before any timing, both trees predict the error of the three
predict nets and the 10-term series at seeded batches of every length 0-420
and of 961, 1 001, 1 025 and 4 097 angles, around the chunk edges of
`network.forward_batch`.  Those predictions, and every training history, trained
parameter vector, prune report (pruned width, both spectra and both MSEs),
timed prediction and stream's standard output bytes are compared between
the trees.  It writes, per case, both trees' medians and quartiles, the
ratio of medians (change / base), the number of pairs the change won and
whether the case's results were identical in every round, with the model
files and batch lengths whose predictions differ and the Python, numpy and
BLAS thread settings and the CPU model.  Every case is timed even when the
trees differ, as they do by design in a change to a kernel's bits; the
script then exits 1 once the report is written.

The script uses only these names of a tree, so it compares any two trees
that share them and read version-1 model files: `simgen.synthesize`,
`archetype_spec` and `LSB_DEG`, `caldata.partition_even_odd` and
`error_profile`, `optim.TrainingConfig`, `pipeline.ExperimentConfig`,
`fit_network` (its net's `params` and its prune report's `pruned_hidden`,
`spectrum_initial`, `spectrum_pruned`, `mse_initial` and `mse_pruned`),
`load_model` and `predict_error`, and `cli.main`.

Usage:
    python scripts/ab_kernels.py --base OLD/src --change NEW/src --out ab.json
        [--rounds 15] [--scale 1.0]
"""

import os

# one BLAS thread: LM histories depend on the thread count, and the pin must
# precede the import of numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# name: (optimizer, hidden width, archetype, iterations, prune)
TRAININGS = {
    "gd-80": ("backprop", 80, 3, 1000, False),
    "lm-80": ("lm", 80, 1, 300, False),
    "lm-40": ("lm", 40, 2, 600, False),
    "lm-6": ("lm", 6, 2, 600, False),
    "prune-40": ("lm", 40, 2, 600, True),
}
PREDICT_ANGLES = 1024
PREDICT_WIDTHS = (6, 40, 80)
PREDICT_CALLS = 250    # per sample
# batch lengths at which both trees' predictions are compared before timing
CHECK_LENGTHS = (*range(421), 961, 1001, 1025, 4097)
STREAM_CODES = 6000
STREAM_RUNS = 5        # per sample
SEED = 42


def load_tree(src: Path, alias: str):
    """Import `src/rescomp` as the package `alias` (its imports are relative)."""
    init = src / "rescomp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no rescomp package under {src}")
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return {name: importlib.import_module(f"{alias}.{name}")
            for name in ("caldata", "cli", "optim", "pipeline", "simgen")}


def tree_digest(src: Path) -> str:
    """sha256 over the tree's rescomp/*.py files, by name and content."""
    h = hashlib.sha256()
    for path in sorted((src / "rescomp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def training_case(m, optimizer: str, hidden: int, archetype: int, iterations: int,
                  prune: bool):
    """A zero-argument `pipeline.fit_network` on the archetype's training half,
    as `run_experiment` runs it, returning (history, trained parameters, the
    prune report's pruned width, spectra and MSEs or None without pruning)."""
    cal = m["simgen"].synthesize(m["simgen"].archetype_spec(archetype), grid_step_deg=1.0)
    train_set, _test = m["caldata"].partition_even_odd(cal)
    profile = m["caldata"].error_profile(train_set)
    cfg = m["pipeline"].ExperimentConfig(
        hidden=hidden, optimizer=optimizer, prune=prune,
        training=m["optim"].TrainingConfig(max_iterations=iterations, seed=SEED))

    def run():
        trained, history, report = m["pipeline"].fit_network(profile, cfg)
        pruned = None if report is None else (
            report.pruned_hidden, report.spectrum_initial, report.spectrum_pruned,
            report.mse_initial, report.mse_pruned)
        return (np.array(history.mse_per_iteration).tobytes(), history.stop_reason.value,
                trained.params.tobytes(), pruned)
    return run


def write_model(path: Path, kind: str, payload: dict) -> Path:
    """Write a version-1 model file of `kind` for encoder "ab", with the
    payload keys and values of `payload`."""
    doc = {"format_version": 1, "kind": kind, "encoder_id": "ab", **payload}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def ann_payload(params: np.ndarray) -> dict:
    """The model-file payload of the 1:J:1 net of `params`, with the input and
    target maps every fit writes."""
    j = (len(params) - 1) // 3
    payload = {"shape": {"n_inputs": 1, "n_hidden": j, "n_outputs": 1},
               "input_norm": {"lo": 0.0, "hi": 360.0, "out_lo": 0.0, "out_hi": 1.0},
               "target_norm": {"lo": -6.0, "hi": 6.0, "out_lo": 0.1, "out_hi": 0.9}}
    keys = ("hidden_weights", "hidden_thresholds", "output_weights", "output_thresholds")
    payload.update(zip(keys, (b.tolist() for b in np.split(params, [j, 2 * j, 3 * j]))))
    return payload


def init_draw(hidden: int) -> np.ndarray:
    """The parameters of a fresh seeded 1:`hidden`:1 net: weights uniform in
    [-0.5, 0.5], thresholds zero."""
    rng = np.random.default_rng(SEED)
    w_hidden, w_output = rng.uniform(-0.5, 0.5, (2, hidden))
    return np.concatenate([w_hidden, np.zeros(hidden), w_output, np.zeros(1)])


def predict_case(m, model_path: Path, calls: int):
    """A zero-argument run of `calls` error predictions on `PREDICT_ANGLES`
    angles by tree `m`'s load of the model file `model_path`."""
    model = m["pipeline"].load_model(model_path)
    angles = np.linspace(0.0, 360.0, PREDICT_ANGLES, endpoint=False)
    predict_error = m["pipeline"].predict_error

    def run():
        for _ in range(calls - 1):
            predict_error(model, angles)
        return predict_error(model, angles).tobytes()
    return run


def prediction_differences(trees: dict, model_paths) -> dict:
    """{model file name: the lengths in CHECK_LENGTHS at which the trees'
    `predict_error` of seeded batches give different bytes}, for each model
    file with any."""
    rng = np.random.default_rng(SEED)
    batches = [rng.uniform(0.0, 360.0, n) for n in CHECK_LENGTHS]
    differences = {}
    for path in model_paths:
        predicted = {}
        for side, m in trees.items():
            model = m["pipeline"].load_model(path)
            predicted[side] = [m["pipeline"].predict_error(model, angles).tobytes()
                               for angles in batches]
        lengths = [n for n, base, change in zip(CHECK_LENGTHS, predicted["base"],
                                                predicted["change"]) if base != change]
        if lengths:
            print(f"{path.name}: the trees' predictions differ at {len(lengths)} of "
                  f"{len(CHECK_LENGTHS)} batch lengths", file=sys.stderr)
            differences[path.name] = lengths
    return differences


def write_stream_inputs(lsb_deg: float, workdir: Path) -> dict:
    """Write the model files of a seeded 1:80:1 net and a 10-term Fourier
    model, and `STREAM_CODES` seeded 16-bit codes of `lsb_deg` degrees, one
    angle a line, as an R/D converter emits them.  Returns {case name: (model
    path, codes path)}."""
    rng = np.random.default_rng(SEED)
    net = ann_payload(rng.normal(0.0, 3.0, 3 * 80 + 1))
    terms = []
    for n in range(1, 11):
        a, b = rng.normal(0.0, 1.0, 2).tolist()
        terms.append({"n": n, "a": a, "b": b})
    codes = workdir / "codes.txt"
    codes.write_text("".join(f"{float(k) * lsb_deg!r}\n"
                             for k in rng.integers(0, 65536, STREAM_CODES)), encoding="utf-8")
    return {"stream-ann-80": (write_model(workdir / "stream-ann-80.json", "ann", net), codes),
            "stream-fourier-10": (write_model(workdir / "stream-fourier-10.json", "fourier",
                                              {"a0": 0.3, "terms": terms}), codes)}


def stream_case(m, model: Path, codes: Path, runs: int):
    """A zero-argument run of `runs` `correct --stdin` streams of `codes`
    through tree `m`'s command line, returning the last run's stdout bytes."""
    def run():
        for _ in range(runs):
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
            with open(codes, encoding="utf-8") as fin, redirect_stdout(out):
                stdin, sys.stdin = sys.stdin, fin
                try:
                    code = m["cli"].main(["correct", "--model", str(model), "--stdin"])
                    out.flush()
                finally:
                    sys.stdin = stdin
            if code != 0:
                raise SystemExit(f"correct --stdin exited {code} on {model}")
        return out.buffer.getvalue()
    return run


def time_rounds(cases: dict, rounds: int) -> tuple[dict, dict]:
    """Per case and tree, the wall seconds of each round's run, the tree that
    runs first alternating; and per case, whether both trees' results were
    identical in every round."""
    seconds = {name: {"base": [], "change": []} for name in cases}
    identical = dict.fromkeys(cases, True)
    for r in range(rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for name, runs in cases.items():
            results = {}
            for side in order:
                start = time.perf_counter()
                results[side] = runs[side]()
                seconds[name][side].append(time.perf_counter() - start)
            if results["base"] != results["change"] and identical[name]:
                print(f"{name}: the trees' results differ in round {r}", file=sys.stderr)
                identical[name] = False
        print(f"round {r + 1}/{rounds} done", file=sys.stderr)
    return seconds, identical


def quartiles(values):
    return tuple(float(q) for q in np.percentile(values, (25, 50, 75)))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="base source tree")
    parser.add_argument("--change", required=True, type=Path, help="changed source tree")
    parser.add_argument("--out", required=True, type=Path, help="output JSON file")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every iteration budget and call count")
    args = parser.parse_args(argv)
    if args.rounds < 1 or not args.scale > 0:
        parser.error("--rounds must be >= 1 and --scale > 0")

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    trees = {"base": load_tree(args.base, "rescomp_ab_base"),
             "change": load_tree(args.change, "rescomp_ab_change")}

    def scaled(n):
        return max(1, round(n * args.scale))

    cases = {}
    for name, (optimizer, hidden, archetype, iterations, prune) in TRAININGS.items():
        cases[name] = {side: training_case(m, optimizer, hidden, archetype, scaled(iterations),
                                           prune)
                       for side, m in trees.items()}

    with tempfile.TemporaryDirectory() as workdir:
        checked = []
        for hidden in PREDICT_WIDTHS:
            path = write_model(Path(workdir) / f"predict-{hidden}.json", "ann",
                               ann_payload(init_draw(hidden)))
            checked.append(path)
            cases[f"predict-{PREDICT_ANGLES}x{hidden}"] = {
                side: predict_case(m, path, scaled(PREDICT_CALLS)) for side, m in trees.items()}
        lsb_deg = trees["base"]["simgen"].LSB_DEG
        streams = write_stream_inputs(lsb_deg, Path(workdir))
        for name, (model, codes) in streams.items():
            cases[name] = {side: stream_case(m, model, codes, scaled(STREAM_RUNS))
                           for side, m in trees.items()}
        checked.append(streams["stream-fourier-10"][0])
        differing = prediction_differences(trees, checked)
        seconds, identical = time_rounds(cases, args.rounds)

    report = {}
    for name, by_side in seconds.items():
        base_q, change_q = quartiles(by_side["base"]), quartiles(by_side["change"])
        wins = sum(c < b for b, c in zip(by_side["base"], by_side["change"]))
        report[name] = {
            "unit": "s",
            "base_median": base_q[1],
            "base_quartiles": [base_q[0], base_q[2]],
            "change_median": change_q[1],
            "change_quartiles": [change_q[0], change_q[2]],
            "ratio_change_over_base": change_q[1] / base_q[1],
            "change_faster_pairs": wins,
            "pairs": args.rounds,
            "identical": identical[name],
        }
        print(f"{name:16s} base {base_q[1]:.5f} s  change {change_q[1]:.5f} s  "
              f"ratio {change_q[1] / base_q[1]:.3f}  faster in {wins}/{args.rounds}"
              + ("" if identical[name] else "  results differ"))

    doc = {
        "what": "medians of per-case wall seconds, both trees in one process",
        "identical_results": all(identical.values()) and not differing,
        "differing_predictions": differing,
        "rounds": args.rounds,
        "scale": args.scale,
        "trainings": {name: {"optimizer": o, "hidden": j, "archetype": a,
                             "iterations": scaled(n), "prune": pr, "patterns": 180}
                      for name, (o, j, a, n, pr) in TRAININGS.items()},
        "predict": {"angles": PREDICT_ANGLES, "calls_per_sample": scaled(PREDICT_CALLS)},
        "stream": {"codes": STREAM_CODES, "runs_per_sample": scaled(STREAM_RUNS),
                   "models": {"stream-ann-80": "seeded 1:80:1 net",
                              "stream-fourier-10": "seeded 10-term Fourier model"}},
        "base_digest": tree_digest(args.base),
        "change_digest": tree_digest(args.change),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "pinned_cpus": 1,
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
        },
        "cases": report,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if doc["identical_results"] else 1


if __name__ == "__main__":
    sys.exit(main())
