"""Command-line harness: train, calibrate, sweep, pr, theory, simulate.

Every subcommand writes one CSV (to --output or stdout) with a fixed column
set, and is byte-deterministic given identical flags and seeds. A config file
of key=value lines can supply any long flag (hyphens or underscores); flags
given on the command line override the file.
"""

import argparse
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import bench, calibration, data, simulator, trainer
from .core import ConfidenceParams, Direction, StoppingRule, crossing_magnitude, crossing_probability
from .errors import ParameterError, StstError, check_count, check_finite
from .predictor import load_model, predict_rows, save_model
# unused here: perfbench/layers.py wraps these three by their cli names, and
# the import goes once those bindings move to stst.predictor (ROADMAP item 18)
from .predictor import attentive_from_prefix, full_from_prefix, prefix_score_matrix  # noqa: F401

__all__ = ["main"]


def _parse_synthetic(text: str) -> data.SyntheticSpec:
    """Parse 'dim=20,n_pos=500,n_neg=500,sep=4,std=1,seed=7' (seed defaults
    to 0); an unknown or repeated field is an error, not a silent default."""
    fields = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            raise ParameterError(f"bad synthetic spec fragment {part!r}")
        if key not in ("dim", "n_pos", "n_neg", "sep", "std", "seed"):
            raise ParameterError(f"unknown synthetic spec field {key!r}")
        if key in fields:
            raise ParameterError(f"synthetic spec repeats field {key!r}")
        fields[key] = value.strip()
    try:
        return data.SyntheticSpec(
            dim=int(fields["dim"]),
            n_pos=int(fields["n_pos"]),
            n_neg=int(fields["n_neg"]),
            mean_separation=float(fields["sep"]),
            noise_std=float(fields["std"]),
            seed=int(fields.get("seed", "0")),
        )
    except KeyError as exc:
        raise ParameterError(f"synthetic spec missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ParameterError(f"bad synthetic spec value: {exc}") from None


def _load_config_tokens(path: str) -> list[str]:
    """Turn a key=value config file into CLI tokens (prepended, so real flags win)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config: {exc}") from None
    tokens: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ParameterError(f"config {path}: line {line_no}: expected key=value, got {stripped!r}")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(flag)
        else:
            tokens.extend([flag, value])
    return tokens


@contextmanager
def _output(path):
    """The --output stream: stdout for None or "-", else the file, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as stream:
            yield stream


# every flag that names a file a command writes, and every one it reads
_OUTPUT_FLAGS = ("output", "model_out", "test_out", "train_out")
_INPUT_FLAGS = ("model", "data", "train", "test")


def _check_outputs(args) -> None:
    """Refuse an output path that cannot be written, two output flags
    naming one file, or an output naming an input, before any input is
    read, so a failing command leaves no partial result behind and no input
    overwritten."""
    named = [("--config", path) for path in args.config or ()]
    named += [("--" + name, getattr(args, name, None)) for name in _INPUT_FLAGS]
    # each resolved input path and the flag that names it; Path.resolve
    # raises on a symlink loop, os.path.realpath does not
    inputs = {}
    for flag, path in named:
        if path is not None:
            inputs.setdefault(os.path.realpath(path), flag)
    flags = {}  # each resolved output path and the flag that names it
    for name in _OUTPUT_FLAGS:
        path = getattr(args, name, None)
        if path is None or name == "output" and path == "-":
            continue
        flag, target = "--" + name.replace("_", "-"), Path(path)
        if target.is_dir():
            raise ParameterError(f"{flag} {path} is a directory")
        if not target.parent.is_dir():
            raise ParameterError(f"{flag} {path}: no directory {target.parent}")
        resolved = os.path.realpath(path)
        if resolved in inputs:
            raise ParameterError(
                f"{flag} {path} names the same file as {inputs[resolved]}; an output cannot overwrite an input"
            )
        other = flags.setdefault(resolved, flag)
        if other != flag:
            raise ParameterError(f"{other} and {flag} both name {path}; each output needs its own file")


def _class_label(text: str) -> int:
    if text in ("+1", "1", "pos"):
        return 1
    if text in ("-1", "neg"):
        return -1
    raise ParameterError(f"class must be +1 or -1, got {text!r}")


def _check_split_flags(fraction_flag: str, fraction, seed_flag: str, seed) -> None:
    """A split's fraction and seed, checked before any input is read. The
    empty-side check needs the row count, so it stays in data.split."""
    if fraction is not None and not 0.0 < fraction < 1.0:
        raise ParameterError(f"{fraction_flag} must be in (0, 1), got {fraction!r}")
    if seed is not None:
        check_count(seed_flag, seed, 0)


def _cmd_train(args) -> int:
    if (args.data is None) == (args.synthetic is None):
        raise ParameterError("train needs exactly one of --data or --synthetic")
    if args.test_out is not None and args.test_fraction is None:
        raise ParameterError("--test-out needs --test-fraction (there is no held-out split to write)")
    if args.split_seed is not None and args.test_fraction is None:
        raise ParameterError("--split-seed needs --test-fraction (there is no split to seed)")
    _check_split_flags("--test-fraction", args.test_fraction, "--split-seed", args.split_seed)
    config = trainer.TrainConfig(
        lambda_reg=args.lambda_reg, epochs=args.epochs, seed=args.seed, use_bias=not args.no_bias
    )
    if args.data is not None:
        dataset = data.parse_sparse(args.data)
    else:
        dataset = data.generate_synthetic(_parse_synthetic(args.synthetic))
    test = None
    if args.test_fraction is not None:
        dataset, test = data.split(dataset, args.test_fraction, args.split_seed or 0)
    model = trainer.train_linear(dataset, config)
    save_model(model, args.model_out)
    if args.test_out is not None:
        data.serialize_sparse(test, args.test_out)
    if args.train_out is not None:
        data.serialize_sparse(dataset, args.train_out)

    def accuracy(ds):
        return float((predict_rows(model, ds.X, model.theta).label == ds.y).mean())

    objective = trainer.hinge_objective(model, dataset, args.lambda_reg)
    row = (
        dataset.n_examples,
        dataset.dim,
        args.lambda_reg,
        args.epochs,
        args.seed,
        accuracy(dataset),
        accuracy(test) if test is not None else None,
        objective,
    )
    with _output(args.output) as stream:
        data.write_csv(
            stream,
            ("examples", "dim", "lambda", "epochs", "seed", "train_accuracy", "test_accuracy", "objective"),
            [row],
        )
    return 0


def _cmd_calibrate(args) -> int:
    if args.cal_seed is not None and args.cal_fraction is None:
        raise ParameterError("--cal-seed needs --cal-fraction (there is no slice to seed)")
    _check_split_flags("--cal-fraction", args.cal_fraction, "--cal-seed", args.cal_seed)
    if args.paper_faithful:
        if args.cal_fraction is not None:
            raise ParameterError("--cal-fraction slices --train; --paper-faithful calibrates on the whole test set")
        if args.train is not None:
            raise ParameterError("--paper-faithful calibrates on --test; --train is not read")
        if args.test is None:
            raise ParameterError("--paper-faithful needs --test (calibrates on the test set)")
        source, protocol = args.test, "paper-faithful"
    else:
        if args.test is not None:
            raise ParameterError("--test is read only with --paper-faithful; calibrate on --train")
        if args.train is None:
            raise ParameterError("calibrate needs --train (or --paper-faithful with --test)")
        source, protocol = args.train, "train-slice"
    class_used = _class_label(args.class_used)
    model = load_model(args.model)
    cal_set = data.parse_sparse(source, dim=model.dim)
    if args.cal_fraction is not None:
        # the held-out slice of --train plays the role of the calibration set
        _, cal_set = data.split(cal_set, args.cal_fraction, args.cal_seed or 0)
    mode = "per_term" if args.mode == "per-term" else "score"
    calibrated, report = calibration.calibrate(model, cal_set, class_used, mode=mode)
    if args.model_out is not None:
        save_model(calibrated, args.model_out)
    row = (f"{report.class_used:+d}", report.n_calibration, report.variance_hat, protocol, mode)
    with _output(args.output) as stream:
        data.write_csv(stream, ("class_used", "n_calibration", "variance_hat", "protocol", "mode"), [row])
    return 0


def _cmd_sweep(args) -> int:
    check_finite("theta", args.theta)
    if args.grid == "exhaustive":
        grid = "exhaustive"
    else:
        try:
            grid = int(args.grid)
        except ValueError:
            raise ParameterError(f"grid must be an integer or 'exhaustive', got {args.grid!r}") from None
        check_count("grid", grid, 1)
    model = load_model(args.model)
    test = data.parse_sparse(args.data, dim=model.dim)
    records = bench.run_sweep(model, test, theta=args.theta, grid=grid)
    with _output(args.output) as stream:
        bench.sweep_csv(records, stream)
    return 0


def _cmd_pr(args) -> int:
    check_finite("theta", args.theta)
    rule = None
    if args.mode == "attentive":
        if args.tau is None:
            raise ParameterError("pr --mode attentive needs --tau")
        rule = StoppingRule(theta=args.theta, tau=args.tau, direction=Direction.REJECT_BELOW)
    elif args.tau is not None:
        raise ParameterError("pr --tau needs --mode attentive (a full pass has no stop threshold)")
    model = load_model(args.model)
    test = data.parse_sparse(args.data, dim=model.dim)
    preds = predict_rows(model, test.X, args.theta, rule)
    points = bench.precision_recall(preds.score, test.y)
    with _output(args.output) as stream:
        bench.pr_csv(points, stream)
    return 0


def _cmd_theory(args) -> int:
    # an omitted flag keeps the TheoryConfig default; --seed is the base seed
    flags = ("n", "bridge_trials", "stop_error_trials", "stopping_trials", "seed")
    config = bench.TheoryConfig(**{f: getattr(args, f) for f in flags if getattr(args, f) is not None})
    results = bench.run_theory_suite(config)
    with _output(args.output) as stream:
        bench.theory_csv(results, stream)
    return 0


def _cmd_simulate(args) -> int:
    if args.experiment == "bridge":
        needed, unread = "tau", ("delta",)
    elif args.experiment == "stop-error":
        needed, unread = "delta", ("tau", "band", "mode")
    else:
        needed, unread = "delta", ("tau", "band", "mode", "theta")
    if getattr(args, needed) is None:
        raise ParameterError(f"simulate --experiment {args.experiment} needs --{needed}")
    for name in unread:
        if getattr(args, name) is not None:
            raise ParameterError(f"simulate --experiment {args.experiment} does not read --{name}")
    theta = 0.0 if args.theta is None else args.theta
    spec = simulator.WalkSpec(
        n=args.n, step=args.step, scale=args.scale, drift=args.drift, seed=args.seed
    )
    if args.experiment == "bridge":
        # before the walk: an invalid boundary fails without running any trials
        closed = crossing_probability(args.tau, theta, spec.total_variance)
        est = simulator.empirical_bridge_crossing_grid(
            spec, [args.tau], theta=theta, band=args.band, trials=args.trials, mode=args.mode or "rejection"
        )[0]
        row = simulator.TheoryRow.crossing("bridge_crossing", spec.n, None, args.tau, theta, est, closed)
    elif args.experiment == "stop-error":
        est = simulator.empirical_stop_error_grid(spec, [args.delta], theta=theta, trials=args.trials)[0]
        magnitude = crossing_magnitude(ConfidenceParams(delta=args.delta, variance=spec.total_variance))
        # the reflection principle's rate under sign conditioning,
        # 2*Phi(-2m/sd): what this pinned placement measures
        closed = math.erfc(math.sqrt(2.0) * magnitude / math.sqrt(spec.total_variance))
        tau = theta + magnitude
        row = simulator.TheoryRow.crossing("stop_error", spec.n, args.delta, tau, theta, est, closed)
    else:  # stopping-time
        summary = simulator.empirical_stopping_time(spec, delta=args.delta, trials=args.trials)
        row = simulator.TheoryRow.stopping_time(spec, args.delta, summary)
    with _output(args.output) as stream:
        simulator.write_theory_rows([row], stream)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stst",
        description="Early-stopping evaluation of weighted-sum predictors and its verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", action="append", help="key=value file supplying any flag; flags override")
        p.add_argument("--output", "-o", help="CSV output path (default stdout)")

    p = sub.add_parser("train", help="train a linear model by stochastic gradient descent")
    add_common(p)
    p.add_argument("--data", help="training set in sparse label index:value format")
    p.add_argument("--synthetic", help="synthetic spec, e.g. dim=20,n_pos=500,n_neg=500,sep=4,std=1,seed=7")
    p.add_argument("--test-fraction", type=float, help="hold out this fraction before training")
    p.add_argument("--split-seed", type=int, help="seed of the --test-fraction split (default 0)")
    p.add_argument("--test-out", help="write the held-out split to this sparse file")
    p.add_argument("--train-out", help="write the (post-split) training set to this sparse file")
    p.add_argument("--lambda", dest="lambda_reg", type=float, default=0.01, help="regularization strength")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-bias", action="store_true", help="train without a bias term")
    p.add_argument("--model-out", required=True, help="write the trained model container here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("calibrate", help="estimate per-term corrections and score variance")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--train", help="training set; a held-out slice of it calibrates (default protocol)")
    p.add_argument("--test", help="test set, used only with --paper-faithful")
    p.add_argument("--paper-faithful", action="store_true", help="calibrate on the test set itself")
    p.add_argument("--cal-fraction", type=float, help="fraction of --train carved out for calibration")
    p.add_argument("--cal-seed", type=int, help="seed of the --cal-fraction slice (default 0)")
    p.add_argument("--class", dest="class_used", default="+1", help="class to center on (+1 or -1)")
    p.add_argument("--mode", choices=("score", "per-term"), default="score")
    p.add_argument("--model-out", help="write the calibrated model container here")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("sweep", help="attentive vs matched-budget sweep over stop thresholds")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="test set in sparse format")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--grid", default="50", help="number of grid points, or 'exhaustive'")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("pr", help="precision-recall curve from reported scores")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--mode", choices=("full", "attentive"), default="full")
    p.add_argument("--tau", type=float, help="stop threshold for attentive mode")
    p.set_defaults(func=_cmd_pr)

    p = sub.add_parser("theory", help="run the three verification experiments")
    add_common(p)
    p.add_argument("--n", type=int, help="walk length for the bridge and calibration checks")
    p.add_argument("--bridge-trials", type=int)
    p.add_argument("--stop-error-trials", type=int)
    p.add_argument("--stopping-trials", type=int)
    p.add_argument("--seed", type=int, help="base seed: bridge S, stop-error S+1, i-th stopping length S+2+i")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("simulate", help="run one walk experiment")
    add_common(p)
    p.add_argument("--experiment", choices=("bridge", "stop-error", "stopping-time"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--step", choices=("gaussian", "rademacher", "uniform"), default="gaussian")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--drift", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--tau", type=float, help="boundary (bridge experiment)")
    p.add_argument("--theta", type=float, help="endpoint threshold (bridge and stop-error; default 0)")
    p.add_argument("--band", type=float, help="rejection half-width (bridge experiment, rejection mode)")
    p.add_argument("--mode", choices=("rejection", "exact"), help="bridge endpoint pinning (default rejection)")
    p.add_argument("--delta", type=float, help="target rate (stop-error and stopping-time)")
    p.set_defaults(func=_cmd_simulate)

    return parser


def _config_paths(argv: list[str]) -> list[str]:
    """Every --config path in argv, in any spelling argparse accepts."""
    pre = argparse.ArgumentParser(prog="stst", add_help=False)
    pre.add_argument("--config", action="append", default=[])
    return pre.parse_known_args(argv)[0].config


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    paths = _config_paths(argv)
    if len(paths) > 1:
        parser.error("--config may be given once")
    if paths:
        try:
            tokens = _load_config_tokens(paths[0])
        except ParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # right after the subcommand, so that flags given on the command line win
        argv = argv[:1] + tokens + argv[1:]
    args = parser.parse_args(argv)
    if (args.config or []) != paths:  # a file's own config= line would go unread
        parser.error("a config file cannot name --config")
    try:
        _check_outputs(args)
        return args.func(args)
    except (StstError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
