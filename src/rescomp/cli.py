"""Command-line interface.

Subcommands cover the whole workflow: synthesize calibration data, train
a network, prune it, fit the Fourier baseline, evaluate a model against a
calibration file, correct angles (one-shot or streaming), and run the
end-to-end experiment.  Exit status is 0 on success; on failure the
process prints `ErrorName: detail` on stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from itertools import islice

import numpy as np

from . import caldata, optim, pipeline, simgen
from .errors import MalformedRow, OutOfRange, RescompError

# Lines of `correct --stdin` read per block: one parse and one
# `pipeline.correct` call each.  Every block pays a fixed cost whatever its
# length (about 44 us in `pipeline.correct` and 14 us per `format_angles`
# call, timed on one angle): on a 1:80:1 net at one BLAS thread, correcting
# and printing 6 144 angles took 2.11 ms in 1 024-line blocks and 1.88 ms
# in 4 096-line blocks (medians of 25 runs).  `network.forward_batch` runs
# a block in row chunks through one hidden buffer of at most 125 KiB, the
# Fourier series sums it term by term in 64 KiB complex arrays, and every
# array of a block stays under glibc's 128 KiB mmap threshold.  From a pipe
# a block's answers wait for its last line or EOF.
STDIN_BATCH_LINES = 4096
# Values per `format_angles` call.  Its temporaries take about 44 B a value
# (46 KB for 1 024 values, 181 KB for 4 096), so a slice stays under the mmap
# threshold, and a value near a rounding tie sends only its own slice down
# the `%` path.
PRINT_SLICE_VALUES = 1024

# `format_angles` prints v with `"%.6f"` from q = rint(v * 1e6) when v is in
# [0, FAST_FORMAT_BOUND): there v * 1e6 < 2**30, so the product is within
# 2**-24 of the exact v * 10**6, and q is its correctly rounded value whenever
# the product lies within TIE_MARGIN of q.  A block with any value nearer a
# tie (about 1 block in 400 of random angles), exact ties included, is printed
# with the `%` operator instead.
FAST_FORMAT_BOUND = 999.0
TIE_MARGIN = 0.5 - 2.0 ** -20


def _digit_words(count: int, digits: int, suffix: bytes, pad: bytes = b"0") -> np.ndarray:
    """For each k < `count`, the four ASCII bytes of k in `digits` decimals,
    leading zeros written as `pad`, then `suffix`, as one uint32 word."""
    chars = np.empty((count, 4), dtype=np.uint8)
    k = np.arange(count, dtype=np.uint16)
    for col in range(digits - 1, -1, -1):
        chars[:, col] = k % 10 + ord("0")
        k //= 10
    for col in range(digits - 1):   # the leading zeros of k < 10**(digits - 1 - col)
        chars[:10 ** (digits - 1 - col), col] = ord(pad)
    chars[:, digits:] = np.frombuffer(suffix, dtype=np.uint8)
    return chars.view(np.uint32).ravel()


def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words of `"%3d."`, `"%04d"` and `"%02d\n "` for the integer part,
    the first four decimals and the last two; `format_angles` deletes the
    spaces.  Built with numpy integer arithmetic: every array is at most 40 KB."""
    return (_digit_words(1000, 3, b".", pad=b" "), _digit_words(10000, 4, b""),
            _digit_words(100, 2, b"\n "))


_INT_WORDS, _HIGH_WORDS, _LOW_WORDS = _format_tables()


def _rounded_micro(values: np.ndarray) -> np.ndarray | None:
    """rint(values * 1e6) as uint32 for values in [0, `FAST_FORMAT_BOUND`),
    or None if any value lies within 2**-20 of a rounding tie."""
    scaled = values * 1e6
    micro = np.rint(scaled)
    scaled -= micro
    return micro.astype(np.uint32) if np.abs(scaled, out=scaled).max() <= TIE_MARGIN else None


def _micro_words(micro: np.ndarray) -> np.ndarray:
    """The (n, 3) table words of the lines of `n` micro-unit counts; its
    index arrays are freed before the caller copies the words to bytes."""
    whole, micro = np.divmod(micro, 1_000_000)
    high, low = np.divmod(micro, 100)
    words = np.empty((micro.size, 3), dtype=np.uint32)
    words[:, 0] = _INT_WORDS.take(whole)
    words[:, 1] = _HIGH_WORDS.take(high)
    words[:, 2] = _LOW_WORDS.take(low)
    return words


def format_angles(values: np.ndarray) -> str:
    """`"%.6f\n"` of each float64 in the 1-D array `values`, joined.

    A block whose values all lie in [0, `FAST_FORMAT_BOUND`) is printed by
    table lookups from its rounded micro-units (see `TIE_MARGIN`); a block
    with any other value, -0.0 or a value near a rounding tie goes through
    the `%` operator."""
    if not values.size:
        return ""
    if not np.signbit(values).any() and values.max() < FAST_FORMAT_BOUND:
        micro = _rounded_micro(values)
        if micro is not None:
            return _micro_words(micro).tobytes().translate(None, b" ").decode("ascii")
    return ("%.6f\n" * values.size) % tuple(values.tolist())


# the library's experiment defaults, which every flag's default reads
DEFAULTS = pipeline.ExperimentConfig()


def _experiment_config(args) -> pipeline.ExperimentConfig:
    return pipeline.ExperimentConfig(
        hidden=args.hidden,
        optimizer=args.optimizer,
        top_orders=args.top,
        prune=args.prune,
        norm_bounds=(args.norm_lo, args.norm_hi),
        training=optim.TrainingConfig(
            max_iterations=args.max_iterations,
            learning_rate=args.learning_rate,
            stall_window=args.stall_window,
            seed=args.seed,
        ),
    )


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    d, t = DEFAULTS, DEFAULTS.training
    p.add_argument("--optimizer", choices=optim.OPTIMIZERS, default=d.optimizer)
    p.add_argument("--hidden", type=int, default=d.hidden,
                   help="hidden-layer width (default %(default)s)")
    p.add_argument("--seed", type=int, default=t.seed, help="init seed (default %(default)s)")
    p.add_argument("--max-iterations", type=int, default=t.max_iterations)
    p.add_argument("--learning-rate", type=float, default=t.learning_rate)
    p.add_argument("--stall-window", type=int, default=t.stall_window)
    p.add_argument("--norm-lo", type=float, default=d.norm_bounds[0],
                   help="lower error bound mapped to 0.1 (arc-min)")
    p.add_argument("--norm-hi", type=float, default=d.norm_bounds[1],
                   help="upper error bound mapped to 0.9 (arc-min)")


def _cmd_simulate(args) -> int:
    spec = simgen.spec_from_json(args.spec)
    cal = simgen.synthesize(
        spec,
        grid_step_deg=args.step,
        grid_offset_deg=args.offset,
        quantize=not args.no_quantize,
    )
    caldata.save_calibration(args.out, cal)
    print(f"wrote {len(cal)} samples to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    cal = caldata.load_calibration(args.data, encoder_id=args.encoder_id)
    trained, history, report = pipeline.fit_network(caldata.error_profile(cal),
                                                    _experiment_config(args))
    pipeline.save_model(args.out, pipeline.CompensationModel(cal.encoder_id, trained))
    if report is None:
        if args.history:
            pipeline.write_history_csv(args.history, history)
        print(
            f"trained 1:{args.hidden}:1 with {args.optimizer}: "
            f"{history.iterations_run} iterations ({history.stop_reason.value}), "
            f"final mse {history.mse_per_iteration[-1]:.6e}"
        )
    else:
        if args.report:
            caldata.write_json(args.report, asdict(report))
        print(f"pruned hidden layer {report.initial_hidden} -> {report.pruned_hidden}")
    print(f"wrote {args.out}")
    return 0


def _cmd_fourier(args) -> int:
    cal = caldata.load_calibration(args.data, encoder_id=args.encoder_id)
    model, spectrum, orders = pipeline.fit_fourier_baseline(caldata.error_profile(cal), args.top)
    pipeline.save_model(args.out, pipeline.CompensationModel(cal.encoder_id, model))
    if args.spectrum:
        pipeline.write_spectrum_csv(args.spectrum, spectrum)
    print(f"fit orders {orders}")
    print(f"wrote {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    model = pipeline.load_model(args.model)
    cal = caldata.load_calibration(args.data)
    report = pipeline.evaluate(model, cal)
    if args.report:
        doc = {
            "model_kind": model.kind,
            "encoder_id": model.encoder_id,
            "pre": asdict(report.pre_stats),
            "post": asdict(report.post_stats),
            "max_abs_residual_arcmin": report.max_abs_residual_arcmin,
        }
        caldata.write_json(args.report, doc)
    if args.residuals:
        pipeline.write_residuals_csv(args.residuals, report)
    pre, post = report.pre_stats, report.post_stats
    print(f"pre  compensation: MAE {pre.mae_arcmin:.4f}'  RMS {pre.rms_arcmin:.4f}'")
    print(f"post compensation: MAE {post.mae_arcmin:.4f}'  RMS {post.rms_arcmin:.4f}'  "
          f"max |residual| {report.max_abs_residual_arcmin:.4f}'")
    return 0


def _write_corrected(model, angles) -> None:
    """Print the corrected angle of each of `angles`, one `"%.6f"` line each,
    `PRINT_SLICE_VALUES` values per `format_angles` call."""
    if len(angles):
        corrected = pipeline.correct(model, angles)
        for lo in range(0, corrected.size, PRINT_SLICE_VALUES):
            sys.stdout.write(format_angles(corrected[lo:lo + PRINT_SLICE_VALUES]))


def _correct_lines(model, lines: list[str], first_lineno: int) -> None:
    """Correct a block line by line, skipping blank lines; a malformed or
    non-finite line raises once the lines before it are written."""
    angles: list[float] = []
    try:
        for lineno, line in enumerate(lines, start=first_lineno):
            line = line.strip()
            if not line:
                continue
            try:
                angle = float(line)
            except ValueError as exc:
                raise MalformedRow(f"stdin line {lineno}: not an angle: {line!r}") from exc
            if not math.isfinite(angle):
                raise OutOfRange(f"stdin line {lineno}: angle {angle!r} is not finite")
            angles.append(angle)
    finally:
        _write_corrected(model, angles)


def _cmd_correct(args) -> int:
    model = pipeline.load_model(args.model)
    if args.angle is not None:
        _write_corrected(model, np.array([args.angle]))
        return 0
    # on a terminal each line is answered before the next one is read
    block_lines = 1 if sys.stdin.isatty() else STDIN_BATCH_LINES
    lines_read = 0
    while lines := list(islice(sys.stdin, block_lines)):
        # float() strips whitespace itself; a blank, malformed or non-finite
        # line sends the block down the line-by-line path, which skips blank
        # lines and names a bad one
        try:
            angles = np.fromiter(map(float, lines), float, len(lines))
            fast = np.isfinite(angles).all()
        except ValueError:
            fast = False
        if fast:
            _write_corrected(model, angles)
        else:
            _correct_lines(model, lines, lines_read + 1)
        lines_read += len(lines)
    return 0


def _cmd_run_experiment(args) -> int:
    cfg = _experiment_config(args)
    if args.spec:
        spec = simgen.spec_from_json(args.spec)
        cal = simgen.synthesize(spec, grid_step_deg=1.0, encoder_id=args.encoder_id)
    else:
        cal = caldata.load_calibration(args.csv, encoder_id=args.encoder_id)
    result = pipeline.run_experiment(cal, args.outdir, cfg)
    pre = result.pre_full_stats
    ann = result.ann_report.post_stats
    fou = result.fourier_report.post_stats
    print(f"pre compensation : MAE {pre.mae_arcmin:.4f}'  RMS {pre.rms_arcmin:.4f}'")
    print(f"post ann         : MAE {ann.mae_arcmin:.4f}'  RMS {ann.rms_arcmin:.4f}'  "
          f"max |residual| {result.ann_report.max_abs_residual_arcmin:.4f}'")
    print(f"post fourier     : MAE {fou.mae_arcmin:.4f}'  RMS {fou.rms_arcmin:.4f}'  "
          f"max |residual| {result.fourier_report.max_abs_residual_arcmin:.4f}'")
    if result.prune_report is not None:
        print(f"pruned hidden    : {result.prune_report.initial_hidden} -> "
              f"{result.prune_report.pruned_hidden}")
    print(f"wrote {len(result.files)} files to {args.outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rescomp",
        description="Encoder error-profile learning and compensation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic calibration data")
    p.add_argument("--spec", required=True, help="harmonic spec JSON file")
    p.add_argument("--step", type=float, default=2.0, help="grid step in degrees")
    p.add_argument("--offset", type=float, default=0.0, help="grid offset in degrees")
    p.add_argument("--out", required=True, help="output calibration CSV")
    p.add_argument("--no-quantize", action="store_true",
                   help="skip 16-bit quantization of encoder angles")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train a compensation network")
    p.add_argument("--data", required=True, help="training calibration CSV")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--history", help="optional convergence CSV (iteration,mse)")
    p.add_argument("--encoder-id", default="unknown")
    _add_training_flags(p)
    p.set_defaults(func=_cmd_fit, prune=False, top=DEFAULTS.top_orders)

    p = sub.add_parser("prune", help="train, estimate redundancy, retrain smaller")
    p.add_argument("--data", required=True, help="training calibration CSV")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--report", help="optional prune report JSON")
    p.add_argument("--encoder-id", default="unknown")
    _add_training_flags(p)
    p.set_defaults(func=_cmd_fit, prune=True, top=DEFAULTS.top_orders)

    p = sub.add_parser("fourier", help="fit the Fourier-series baseline")
    p.add_argument("--data", required=True, help="training calibration CSV")
    p.add_argument("--top", type=int, default=DEFAULTS.top_orders,
                   help="number of harmonics kept (default %(default)s)")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--spectrum", help="optional spectrum CSV (order,amplitude)")
    p.add_argument("--encoder-id", default="unknown")
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("evaluate", help="evaluate a model against calibration data")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="test calibration CSV")
    p.add_argument("--report", help="optional report JSON")
    p.add_argument("--residuals", help="optional residual table CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("correct", help="apply a model to encoder angles")
    p.add_argument("--model", required=True, help="model JSON")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--angle", type=float, help="one encoder angle in degrees")
    g.add_argument("--stdin", action="store_true",
                   help="read angles line by line, write corrected angles")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("run-experiment", help="full pipeline incl. evaluation bundle")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="harmonic spec JSON (synthetic run on a 1-degree grid)")
    src.add_argument("--csv", help="full calibration CSV on a 1-degree grid")
    p.add_argument("--outdir", required=True, help="report bundle directory")
    p.add_argument("--top", type=int, default=DEFAULTS.top_orders)
    p.add_argument("--prune", action="store_true", help="prune and retrain the network")
    p.add_argument("--encoder-id", default="unknown")
    _add_training_flags(p)
    p.set_defaults(func=_cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RescompError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
