"""Workloads of the rescomp benchmark: fit models, stream angles, check outputs.

Every workload is one calibration session as the paper's users run it: a
calibration engineer fits the compensation models (`pipeline.run_experiment`),
then an acquisition program streams measured angles through them with
`rescomp correct --stdin`.  The workloads differ in the fit (archetype,
optimizer, width, pruning, iteration budget) and in how the run window is
split between fitting and streaming.  Load is closed-loop: one process, one
request at a time.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stdout, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cli_timed import peak_rss_mb
from rescomp import caldata, cli, fourier, network, optim, pipeline, prune, simgen
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Thread pins come from run.py's environment; the program is imported from src/.
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Acceptance bounds on held-out residuals (tests/test_acceptance.py).
MAE_BOUND_ARCMIN = 0.25
MAX_ABS_BOUND_ARCMIN = 0.65

ANN_ANGLES = 6000       # about 0.25 s of streaming at the seed's 25 k angles/s
FOURIER_ANGLES = 3000   # about 0.25 s at the seed's 12 k angles/s
SETUP_REPEATS = 7       # at least; one more set-up process follows every fourth pair
IMPORT_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 120

BUNDLE_FILES = ("ann_model.json", "fourier_model.json", "history.csv",
                "residuals_ann.csv", "residuals_fourier.csv", "spectrum.csv",
                "comparison.csv", "report.json")


@dataclass(frozen=True)
class Workload:
    archetype: int
    hidden: int
    optimizer: str
    prune: bool
    max_iterations: int
    fit_share: float   # share of the run window for fitting; the rest, at least, streams
    acceptance: bool   # held to the acceptance bounds, else only to beat the uncompensated MAE
    stream_setup: bool  # setup_s: CLI start-up on an empty stream, else start-up and synthesis
    fit_probe: str     # the PROBES entry that paces the fits (see Pace)


# Iteration budgets keep every fit near one second, so that a run holds ten or
# more of them and its median does not hang on one slow period of the host.
# LM on archetype 1 needs about 5 000 iterations (20 s) to meet the acceptance
# bounds, so `fit-lm` times the first 300 iterations of that fit and is held
# only to beat the uncompensated MAE.  Pruning meets the bounds at 600 (MAE
# 0.114', max 0.399', 6 hidden nodes left).  Gradient descent on archetype 3
# stays far from them at any budget that fits a run.
# The 1:80:1 fits spend their time in dense algebra on 180 x 241 and 180 x 80
# arrays, the pruned 1:40:1 and 1:6:1 nets mostly in the interpreter.
WORKLOADS = {
    "fit-lm": Workload(1, 80, "lm", False, 300, 0.6, False, False, "linalg"),
    "fit-prune": Workload(2, 40, "lm", True, 600, 0.6, True, False, "python"),
    "correct-stream": Workload(3, 80, "backprop", False, 1000, 0.3, False, True, "linalg"),
}

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "ann_mae_arcmin": "arcmin",
    "ann_max_abs_arcmin": "arcmin",
    "correct_ann_angles_per_s": "1/s",
    "correct_fourier_angles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_FIT_SPANS = ("network.residual_jacobian", "network.mse", "network.forward_batch",
              "network.gradient", "optim.solve", "prune.singular_values")
_STREAM_SPANS = {"ann_stream": "network.forward_batch", "fourier_stream": "fourier.eval_fourier"}

PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.rescomp_s": "s",
    "simgen.synthesize.s": "s",
    "caldata.error_profile.self_s": "s",
    "caldata.partition_even_odd.self_s": "s",
    **{f"{name}.{stat}": unit for name in _FIT_SPANS
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "optim.train_backprop.s": "s",
    "optim.train_backprop.self_s": "s",
    "optim.train_lm.calls": "count",
    "optim.train_lm.s": "s",
    "optim.train_lm.self_s": "s",
    "optim.iterations": "count",
    "optim.candidates": "count",
    "optim.accept_ratio": "ratio",
    "optim.final_mse": "mse",
    "prune.prune_and_retrain.s": "s",
    "prune.pruned_hidden": "count",
    "fourier.harmonic_spectrum.self_s": "s",
    "fourier.fit_fourier.self_s": "s",
    "pipeline.evaluate.self_s": "s",
    "pipeline.save_model.self_s": "s",
    "pipeline.run_experiment.self_s": "s",
    "pipeline.bundle_bytes": "B",
    **{f"{prefix}.{name}": unit for prefix, model_span in _STREAM_SPANS.items()
       for name, unit in (
           ("pipeline.load_model.self_s", "s"),
           ("pipeline.predict_error.calls", "count"),
           ("pipeline.predict_error.self_s", "s"),
           ("pipeline.correct.calls", "count"),
           ("pipeline.correct.self_s", "s"),
           (f"{model_span}.calls", "count"),
           (f"{model_span}.self_s", "s"),
           ("cli.main.self_s", "s"),
           ("cli.lines", "count"))},
    "trace.fit_overhead_s": "s",
    "trace.ann_stream_overhead_s": "s",
    "trace.fourier_stream_overhead_s": "s",
}

# Counts that must repeat exactly between traced runs of the same input.
DETERMINISTIC = ("optim.iterations", "optim.candidates", "optim.solve.calls",
                 "optim.final_mse", "prune.pruned_hidden",
                 "ann_stream.pipeline.predict_error.calls",
                 "fourier_stream.pipeline.predict_error.calls")

# Functions whose calls become spans in a traced run: (module, attribute, span name).
TRACED = (
    (caldata, "error_profile", "caldata.error_profile"),
    (caldata, "partition_even_odd", "caldata.partition_even_odd"),
    (network, "residual_jacobian", "network.residual_jacobian"),
    (network, "mse", "network.mse"),
    (network, "forward_batch", "network.forward_batch"),
    (network, "gradient", "network.gradient"),
    (optim, "train_backprop", "optim.train_backprop"),
    (optim, "train_lm", "optim.train_lm"),
    (np.linalg, "solve", "optim.solve"),
    (prune, "prune_and_retrain", "prune.prune_and_retrain"),
    (prune, "singular_values", "prune.singular_values"),
    (fourier, "harmonic_spectrum", "fourier.harmonic_spectrum"),
    (fourier, "fit_fourier", "fourier.fit_fourier"),
    (fourier, "eval_fourier", "fourier.eval_fourier"),
    (pipeline, "load_model", "pipeline.load_model"),
    (pipeline, "predict_error", "pipeline.predict_error"),
    (pipeline, "correct", "pipeline.correct"),
    (pipeline, "evaluate", "pipeline.evaluate"),
    (pipeline, "save_model", "pipeline.save_model"),
    (pipeline, "run_experiment", "pipeline.run_experiment"),
    (simgen, "synthesize", "simgen.synthesize"),
)


def install(tracer: Tracer) -> None:
    for module, attr, name in TRACED:
        tracer.patch(module, attr, name, package=None if module is np.linalg else "rescomp")


@dataclass
class Tally:
    """Operations attempted and failed; an operation is one fit or one streamed angle."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, what: str, detail: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed {detail}".rstrip())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def fit_bound_problems(w: Workload, mae: float, max_abs: float, pre_mae: float) -> list[str]:
    if w.acceptance:
        if mae <= MAE_BOUND_ARCMIN and max_abs <= MAX_ABS_BOUND_ARCMIN:
            return []
        return [f"held-out MAE {mae:.4f}' / max {max_abs:.4f}' outside "
                f"{MAE_BOUND_ARCMIN}' / {MAX_ABS_BOUND_ARCMIN}'"]
    if mae < pre_mae:
        return []
    return [f"held-out MAE {mae:.4f}' not below uncompensated {pre_mae:.4f}'"]


def bad_lines(got: list[str], expected: list[str]) -> int:
    """Angles whose output line is missing, extra or different."""
    wrong = sum(1 for g, e in zip(got, expected) if g != e)
    return min(len(expected), wrong + abs(len(got) - len(expected)))


def self_test() -> list[str]:
    """The checks count one altered output line, and one over-bound MAE, as failures."""
    problems = []
    expected = ["1.000000", "2.000000", "3.000000"]
    if bad_lines(["1.000000", "2.000001", "3.000000"], expected) != 1:
        problems.append("self-test: an altered output line is not counted")
    if not fit_bound_problems(WORKLOADS["fit-prune"], 0.2501, 0.5, 1.3):
        problems.append("self-test: an over-bound MAE is not counted")
    return problems


def check_fit(w: Workload, result, outdir: Path) -> list[str]:
    problems = []
    expected = set(BUNDLE_FILES) | ({"prune_report.json"} if w.prune else set())
    missing = sorted(n for n in expected | set(result.files) if not (outdir / n).is_file())
    if missing:
        problems.append(f"bundle files missing: {missing}")
    angles = np.array([row[0] for row in result.ann_report.rows])
    for model, name in ((result.ann_model, "ann_model.json"),
                        (result.fourier_model, "fourier_model.json")):
        if name in missing:
            continue
        reloaded = pipeline.load_model(outdir / name)
        if not np.array_equal(pipeline.predict_error(reloaded, angles),
                              pipeline.predict_error(model, angles)):
            problems.append(f"{name} does not reload to identical predictions")
    report = result.ann_report
    problems += fit_bound_problems(w, report.post_stats.mae_arcmin,
                                   report.max_abs_residual_arcmin, report.pre_stats.mae_arcmin)
    return problems


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def calibration_set(w: Workload):
    """The archetype's reference calibration set (1-degree grid), as in the paper."""
    return simgen.synthesize(simgen.archetype_spec(w.archetype), grid_step_deg=1.0,
                             encoder_id=f"arch{w.archetype}")


def experiment_config(w: Workload) -> pipeline.ExperimentConfig:
    """CLI defaults except width, optimizer, pruning and the iteration budget."""
    return pipeline.ExperimentConfig(
        hidden=w.hidden, optimizer=w.optimizer, prune=w.prune,
        training=optim.TrainingConfig(max_iterations=w.max_iterations, seed=42),
    )


@dataclass
class FitOutcome:
    seconds: float
    outdir: Path
    result: object = None
    layers: dict | None = None
    factor: float = 1.0    # see Pace


def fit_once(w: Workload, cal, work: Path, tally: Tally, traced: bool) -> FitOutcome:
    outdir = Path(tempfile.mkdtemp(prefix="fit-", dir=work))
    tracer = Tracer() if traced else None
    if tracer:
        install(tracer)
    start = time.perf_counter()
    try:
        result = pipeline.run_experiment(cal, outdir, experiment_config(w))
    except Exception as exc:  # a fit that raises is a counted failure
        tally.record(1, 1, "fit", f"({type(exc).__name__}: {exc})")
        return FitOutcome(time.perf_counter() - start, outdir)
    finally:
        if tracer:
            tracer.unpatch()
    outcome = FitOutcome(time.perf_counter() - start, outdir, result)
    problems = check_fit(w, result, outdir)
    tally.record(1, 1 if problems else 0, "fit", "; ".join(problems))
    if tracer:
        outcome.layers = fit_layers(tracer, result, outdir)
    return outcome


def fit_layers(tracer: Tracer, result, outdir: Path) -> dict:
    s = tracer.summary()

    def get(name, stat):
        return s.get(name, {}).get(stat, 0)

    training = {"optim.train_lm", "optim.train_backprop"}
    m = {}
    for name in ("caldata.error_profile", "caldata.partition_even_odd",
                 "fourier.harmonic_spectrum", "fourier.fit_fourier",
                 "pipeline.evaluate", "pipeline.save_model", "pipeline.run_experiment"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in _FIT_SPANS:
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["optim.solve.calls"] = tracer.count_children("optim.solve", training)
    for name in ("optim.train_backprop", "optim.train_lm"):
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.self_s"] = get(name, "self_s")
    trainings = get("optim.train_lm", "calls") + get("optim.train_backprop", "calls")
    m["optim.train_lm.calls"] = get("optim.train_lm", "calls")
    iterations = (tracer.count_children("network.residual_jacobian", training)
                  + tracer.count_children("network.gradient", training))
    # one MSE per candidate step, plus one for the starting point of each training
    candidates = tracer.count_children("network.mse", training) - trainings
    m["optim.iterations"] = iterations
    m["optim.candidates"] = candidates
    m["optim.accept_ratio"] = iterations / candidates if candidates else 0.0
    m["optim.final_mse"] = result.history.mse_per_iteration[-1]
    m["prune.prune_and_retrain.s"] = get("prune.prune_and_retrain", "s")
    m["prune.pruned_hidden"] = result.prune_report.pruned_hidden if result.prune_report else 0
    m["pipeline.bundle_bytes"] = sum(p.stat().st_size for p in outdir.iterdir())
    return m


def write_stream(path: Path, codes: np.ndarray) -> list[float]:
    """Exact 16-bit codes as an R/D converter emits them, one angle per line."""
    angles = [float(k) * simgen.LSB_DEG for k in codes]
    path.write_text("".join(f"{a!r}\n" for a in angles), encoding="utf-8")
    return angles


def expected_lines(model_path: Path, angles: list[float]) -> list[str]:
    """What `correct --stdin` must print, from `pipeline.correct` in this process."""
    model = pipeline.load_model(model_path)
    by_angle = {a: f"{pipeline.correct(model, a):.6f}" for a in set(angles)}
    return [by_angle[a] for a in angles]


@dataclass
class Stream:
    kind: str            # "ann" or "fourier"
    model: Path
    path: Path
    expected: list[str]


@dataclass
class StreamOutcome:
    seconds: float       # streaming time, without argument parsing and model loading
    angles: int          # angles streamed and checked
    layers: dict | None = None
    peak_rss_mb: float = 0.0
    factor: float = 1.0    # see Pace


def stream_subprocess(s: Stream, tally: Tally) -> StreamOutcome:
    """`rescomp correct --stdin` in its own process, timed by bench/cli_timed.py."""
    cmd = [sys.executable, str(BENCH / "cli_timed.py"),
           "correct", "--model", str(s.model), "--stdin"]
    n = len(s.expected)
    try:
        with open(s.path, "rb") as fin:
            proc = subprocess.run(cmd, stdin=fin, capture_output=True, env=ENV, cwd=ROOT,
                                  timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.record(n, n, f"{s.kind} stream", "(timed out)")
        return StreamOutcome(0.0, 0)
    if proc.returncode != 0:
        tally.record(n, n, f"{s.kind} stream", f"(exit {proc.returncode}: {proc.stderr[-300:]!r})")
        return StreamOutcome(0.0, 0)
    got = proc.stdout.decode("utf-8", "replace").splitlines()
    tally.record(n, bad_lines(got, s.expected), f"{s.kind} stream", "(output differs)")
    timing = json.loads(proc.stderr.decode().splitlines()[-1])
    return StreamOutcome(timing["stream_s"], n, peak_rss_mb=timing["peak_rss_mb"])


def stream_in_process(s: Stream, tally: Tally, traced: bool) -> StreamOutcome:
    """`rescomp.cli.main` in this process, stdin from the stream file, stdout to a sink.

    The stream is timed from the return of `pipeline.load_model` (or from the
    call, if it loads no model) until the output is flushed, as in
    bench/cli_timed.py: start-up and model loading belong to `setup_s`.
    """
    tracer = Tracer()
    if traced:
        install(tracer)
    else:
        tracer.patch(pipeline, "load_model", "pipeline.load_model")
    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    n = len(s.expected)
    stdin = sys.stdin
    with open(s.path, encoding="utf-8") as fin:
        sys.stdin = fin
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), (tracer.span("cli.main") if traced else nullcontext()):
                code = cli.main(["correct", "--model", str(s.model), "--stdin"])
                sink.flush()
        except Exception as exc:  # as in a separate process: the stream fails, the run goes on
            code = f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            sys.stdin = stdin
            tracer.unpatch()
    got = sink.buffer.getvalue().decode("utf-8", "replace").splitlines()
    failed = n if code != 0 else bad_lines(got, s.expected)
    tally.record(n, failed, f"{s.kind} stream (in-process)", f"(exit {code})" if code else "")
    loaded = tracer.last_end("pipeline.load_model")
    outcome = StreamOutcome(end - (loaded if loaded is not None else start), n)
    if traced:
        summary = tracer.summary()
        model_span = _STREAM_SPANS[f"{s.kind}_stream"]
        outcome.layers = {f"{s.kind}_stream.cli.lines": len(got)}
        for name in ("pipeline.load_model", "pipeline.predict_error", "pipeline.correct",
                     model_span, "cli.main"):
            entry = summary.get(name, {"calls": 0, "self_s": 0.0})
            outcome.layers[f"{s.kind}_stream.{name}.self_s"] = entry["self_s"]
            if name not in ("pipeline.load_model", "cli.main"):
                outcome.layers[f"{s.kind}_stream.{name}.calls"] = entry["calls"]
    return outcome


@dataclass
class Pair:
    ann: StreamOutcome
    fourier: StreamOutcome
    layers: dict | None = None


@dataclass
class Both:
    """One repetition of a traced run: the operation untraced, then traced."""

    untraced: object
    traced: object


def _flatten(outcomes) -> list:
    return [o for x in outcomes for o in ((x.untraced, x.traced) if isinstance(x, Both) else (x,))]


def python_probe():
    """Interpreter work: a Python loop and small numpy solves, about 3 ms."""
    matrix = np.random.default_rng(0).standard_normal((60, 60))
    system = matrix.T @ matrix + np.eye(60)

    def work():
        total = 0
        for i in range(60000):
            total += i
        for _ in range(15):
            np.linalg.solve(system, matrix[0])

    return work


def linalg_probe():
    """Dense linear algebra of an LM step of the 1:80:1 net, about 4 ms."""
    rng = np.random.default_rng(0)
    jac = rng.standard_normal((180, 241))
    residuals = rng.standard_normal(180)
    hidden = rng.standard_normal((180, 80))
    damping = 1e-3 * np.eye(241)

    def work():
        for _ in range(3):
            np.linalg.solve(jac.T @ jac + damping, jac.T @ residuals)
            np.tanh(hidden * 0.5 + 0.1).sum()

    return work


# Each probe with its time in a fast period of the tuning host.
PROBES = {"python": (python_probe, 0.0033), "linalg": (linalg_probe, 0.0045)}


class Pace:
    """Scales each timed sample to a fixed reference pace of the CPU.

    The virtual CPUs of the shared host this was tuned on change speed by up
    to half for seconds to minutes at a time, each on its own, as other
    tenants load the host.  Before a sample, a fixed probe, which uses no
    code of the program, runs once on each allowed CPU; the sample runs
    pinned to the CPU that ran it fastest, with the processes it starts, and
    the probe runs there again afterwards.  `factor` is `reference_s` over
    the faster of the two probes: a sample's wall time times its factor is
    the time it would take on a CPU that runs the probe in `reference_s`.
    The probe should resemble the sample's work: the host's slow periods do
    not slow all kinds of work alike.
    """

    def __init__(self, probe: str) -> None:
        make_work, self.reference_s = PROBES[probe]
        self.work = make_work()
        self.cpus = sorted(os.sched_getaffinity(0))
        # On a host with many CPUs, probing each before every sample would
        # cost more than the sample; a few candidates are enough.
        self.candidates = self.cpus[:4]

    def probe(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def run(self, op):
        """(op(), factor), with op run on the CPU that is fastest now."""
        probes = {}
        for cpu in self.candidates:
            os.sched_setaffinity(0, {cpu})
            probes[cpu] = self.probe()
        cpu = min(probes, key=probes.get)
        os.sched_setaffinity(0, {cpu})
        try:
            result = op()
            after = self.probe()
        finally:
            os.sched_setaffinity(0, self.cpus)
        return result, self.reference_s / min(probes[cpu], after)


class Interleave:
    """Runs fits and stream pairs in turns, each kind kept near its share of the
    time spent, so that the samples of both spread over the whole run."""

    def __init__(self, fit_share: float) -> None:
        self.ops: dict = {}
        self.share = {"fit": fit_share, "pair": 1.0 - fit_share}
        self.done: dict[str, list] = {"fit": [], "pair": []}
        self.walls: dict[str, list[float]] = {"fit": [], "pair": []}

    def run(self, kind: str) -> None:
        start = time.perf_counter()
        self.done[kind].append(self.ops[kind]())
        self.walls[kind].append(time.perf_counter() - start)

    def until(self, deadline: float) -> None:
        """The kind furthest behind its share goes next, if its median duration
        still ends before `deadline`; else the other kind; else stop."""
        while True:
            total = sum(map(sum, self.walls.values()))
            behind = sorted(self.ops, key=lambda k: sum(self.walls[k]) - self.share[k] * total)
            for kind in behind:
                if time.perf_counter() + statistics.median(self.walls[kind]) <= deadline:
                    self.run(kind)
                    break
            else:
                return


# ---------------------------------------------------------------------------
# Set-up and import time, each in a fresh process
# ---------------------------------------------------------------------------

def setup_once(w: Workload, model: Path, work: Path, tally: Tally) -> float:
    """Wall time from spawning a fresh process until timed work could start."""
    empty = work / "empty.txt"
    empty.touch()
    if w.stream_setup:
        cmd = [sys.executable, "-m", "rescomp.cli", "correct", "--model", str(model), "--stdin"]
    else:
        cmd = [sys.executable, "-c", "import rescomp; from rescomp import simgen; "
               f"simgen.synthesize(simgen.archetype_spec({w.archetype}), grid_step_deg=1.0)"]
    with open(empty, "rb") as fin:
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdin=fin, capture_output=True, env=ENV, cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT_S)
        seconds = time.perf_counter() - start
    if proc.returncode != 0:
        tally.problems.append(f"set-up command failed: {proc.stderr[-300:]!r}")
    return seconds


def import_seconds() -> dict:
    """Cumulative import time of numpy, scipy and rescomp under `-X importtime`."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rescomp.cli"],
                              capture_output=True, text=True, env=ENV, cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True)
        runs.append(_outermost_import_us(proc.stderr))
    return {f"import.{pkg}_s": statistics.median(r.get(pkg, 0) for r in runs) / 1e6
            for pkg in ("numpy", "scipy", "rescomp")}


def _outermost_import_us(stderr: str) -> dict:
    """Sum, per top-level package, the cumulative time of the entries not nested in
    another entry of the same package.  The report lists children before parents."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue   # header line
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    totals: dict[str, int] = {}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        pkg = name.split(".")[0]
        if all(a.split(".")[0] != pkg for _d, a in ancestors):
            totals[pkg] = totals.get(pkg, 0) + cumulative
        ancestors.append((depth, name))
    return totals


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def _median_layers(outcomes) -> dict:
    """Per-layer values of the traced repetitions; the low median keeps counts whole."""
    keys = outcomes[0].layers.keys()
    return {k: statistics.median_low(o.layers[k] for o in outcomes) for k in keys}


def _check_repeats(outcomes, what: str, tally: Tally) -> None:
    for key in DETERMINISTIC:
        values = {o.layers[key] for o in outcomes if key in o.layers}
        if len(values) > 1:
            tally.problems.append(f"{what}: {key} differs between traced runs: {sorted(values)}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally, dict]:
    """One benchmark run: returns (metrics, tally, details for the report)."""
    w = WORKLOADS[workload]
    tally = Tally()
    tally.problems += self_test()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        return _run(w, seed, seconds, trace, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):   # another run may still be using it
            WORK.rmdir()


def _run(w: Workload, seed: int, seconds: float, trace: bool, work: Path, tally: Tally):
    t0 = time.perf_counter()
    metrics: dict = {}

    def timed(op):
        """In a traced run, each repetition runs the operation untraced, then traced."""
        if trace:
            return lambda: Both(op(False), op(True))
        return lambda: op(False)

    tracer = Tracer()
    if trace:
        tracer.patch(simgen, "synthesize", "simgen.synthesize")
    cal = calibration_set(w)
    tracer.unpatch()

    # Streams and set-up processes spend their time in the interpreter.
    fit_pace = Pace(w.fit_probe)
    python_pace = Pace("python")

    def paced(pace, op):
        """Untraced samples run through `pace`; traced runs compare raw times."""
        if trace:
            return op()
        outcome, outcome.factor = pace.run(op)
        return outcome

    turns = Interleave(w.fit_share)
    turns.ops["fit"] = timed(
        lambda traced: paced(fit_pace, lambda: fit_once(w, cal, work, tally, traced)))
    turns.run("fit")
    first = _flatten(turns.done["fit"])[-1]
    if first.result is None:
        return metrics, tally, {}   # nothing to stream; the failure is in the tally

    # -- stream inputs and their expected outputs (not timed) --------------
    rng = np.random.default_rng(seed)
    streams = []
    for kind, n in (("ann", ANN_ANGLES), ("fourier", FOURIER_ANGLES)):
        path = work / f"{kind}_stream.txt"
        angles = write_stream(path, rng.integers(0, 65536, size=n))
        model = first.outdir / f"{kind}_model.json"
        streams.append(Stream(kind, model, path, expected_lines(model, angles)))

    # -- each model streams once through the real command line, in its own
    # process, which gives the stream's peak memory; the timed streams then
    # run in this process, so that no interpreter start-up separates them.
    setup: list[tuple[float, float]] = []   # (seconds, factor)
    spawned = [] if trace else [stream_subprocess(s, tally) for s in streams]

    def set_up():
        model = streams[len(setup) % 2].model
        setup.append(python_pace.run(lambda: setup_once(w, model, work, tally)))

    def pair(traced):
        ann, fou = (paced(python_pace, lambda: stream_in_process(s, tally, traced))
                    for s in streams)
        if trace:
            return Pair(ann, fou, {**ann.layers, **fou.layers} if traced else None)
        if len(turns.done["pair"]) % 4 == 3:
            set_up()
        return Pair(ann, fou)

    # Pairs and fits alternate until the window ends, and the pairs get at
    # least their share of it, also when the first fit ran over its own.
    turns.ops["pair"] = timed(pair)
    deadline = max(t0 + seconds, time.perf_counter() + (1 - w.fit_share) * seconds)
    turns.run("pair")
    turns.until(deadline)
    fits, pairs = turns.done["fit"], turns.done["pair"]
    details = {"fits": len(fits), "stream_pairs": len(pairs)}
    results = [f.result for f in _flatten(fits)]
    if any(r is None for r in results):
        return metrics, tally, details   # the failures are in the tally
    if len({(r.history.iterations_run, r.history.mse_per_iteration[-1]) for r in results}) > 1:
        tally.problems.append("fits of the same input end differently")

    if trace:
        traced_fits = [b.traced for b in fits]
        traced_pairs = [b.traced for b in pairs]
        metrics["simgen.synthesize.s"] = tracer.summary()["simgen.synthesize"]["s"]
        metrics.update(import_seconds())
        metrics.update(_median_layers(traced_fits))
        metrics.update(_median_layers(traced_pairs))
        _check_repeats(traced_fits, "fit", tally)
        _check_repeats(traced_pairs, "stream", tally)
        overheads = {
            "trace.fit_overhead_s": [(b.untraced, b.traced) for b in fits],
            "trace.ann_stream_overhead_s": [(b.untraced.ann, b.traced.ann) for b in pairs],
            "trace.fourier_stream_overhead_s": [(b.untraced.fourier, b.traced.fourier)
                                                for b in pairs],
        }
        for name, couples in overheads.items():
            untraced_s = statistics.median(u.seconds for u, _t in couples)
            metrics[name] = statistics.median(t.seconds for _u, t in couples) - untraced_s
            details[name.replace("overhead_s", "untraced_s")] = untraced_s
        return metrics, tally, details

    while len(setup) < SETUP_REPEATS:
        set_up()
    self_rss_mb = peak_rss_mb()
    stream_rss_mb = max(o.peak_rss_mb for o in spawned)
    fit_times = [f.seconds * f.factor for f in fits]
    ann_times = [p.ann.seconds * p.ann.factor for p in pairs]
    fourier_times = [p.fourier.seconds * p.fourier.factor for p in pairs]
    metrics.update(
        setup_s=statistics.median(s * f for s, f in setup),
        fit_s=statistics.median(fit_times),
        ann_mae_arcmin=statistics.median(r.ann_report.post_stats.mae_arcmin for r in results),
        ann_max_abs_arcmin=statistics.median(r.ann_report.max_abs_residual_arcmin
                                             for r in results),
        correct_ann_angles_per_s=ANN_ANGLES / statistics.median(ann_times),
        correct_fourier_angles_per_s=FOURIER_ANGLES / statistics.median(fourier_times),
        peak_rss_mb=max(self_rss_mb, stream_rss_mb),
    )
    details.update(
        setup_runs=len(setup), fit_rss_mb=self_rss_mb, stream_rss_mb=stream_rss_mb,
        wall_setup_s=statistics.median(s for s, _f in setup),
        wall_fit_s=statistics.median(f.seconds for f in fits),
        wall_ann_angles_per_s=ANN_ANGLES / statistics.median(p.ann.seconds for p in pairs),
        wall_fourier_angles_per_s=FOURIER_ANGLES / statistics.median(p.fourier.seconds
                                                                     for p in pairs),
        process_ann_stream_s=spawned[0].seconds,
        process_fourier_stream_s=spawned[1].seconds,
        median_fit_factor=statistics.median(f.factor for f in fits),
        median_python_factor=statistics.median([f for _s, f in setup] + [
            o.factor for p in pairs for o in (p.ann, p.fourier)]),
    )
    return metrics, tally, details
