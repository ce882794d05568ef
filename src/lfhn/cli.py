"""Command line front end: gen-data | train | eval | gradcheck | shapes.

Exit codes: 0 success, 1 check failure (a failed gradcheck, or training that
diverged to a non-finite loss), 2 usage or config error (an output path that
cannot be written, or that names an input or the other output, included),
3 data/model mismatch. Heavy modules are imported inside the command handlers
so that --threads can pin the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3


class ConfigError(ValueError):
    pass


# config file keys that name files rather than model or training fields
PATH_KEYS = ("log", "root_from")


def _config_schema():
    """{key: type} of every key a run config file may contain.

    The keys are the fields of LfhnConfig and TrainConfig plus PATH_KEYS.
    Building it imports numpy, so call it only after --threads took effect.
    """
    from .graph import LfhnConfig, field_types
    from .train import TrainConfig

    return {**field_types(LfhnConfig), **field_types(TrainConfig),
            **dict.fromkeys(PATH_KEYS, str)}


def parse_config_file(path):
    """Read `key = value` lines; `#` starts a comment, unknown or repeated keys are errors."""
    from .graph import parse_value

    schema = _config_schema()
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from err
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} given twice")
        try:
            values[key] = parse_value(schema[key], value.strip())
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    return values


def resolve_seed(flag_seed, file_seed=None):
    """Flag beats config file beats the LFHN_SEED environment variable, then 0.

    Raises ConfigError unless the seed that wins is an integer >= 0.
    """
    if flag_seed is not None:
        seed, source = flag_seed, "--seed"
    elif file_seed is not None:
        seed, source = file_seed, "config seed"
    else:
        env = os.environ.get("LFHN_SEED")
        if not env:
            return 0
        try:
            seed, source = int(env), "LFHN_SEED"
        except ValueError as err:
            raise ConfigError(f"LFHN_SEED={env!r} is not an integer") from err
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    return seed


def _merged_config(args):
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    # command line overrides win over the file
    for key in _config_schema():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _fields_in(values, cls):
    """The entries of values that are fields of the config dataclass cls."""
    from .graph import field_types

    return {k: values[k] for k in field_types(cls) if k in values}


def _build_model_config(values, graph_mod, sample=None):
    kwargs = _fields_in(values, graph_mod.LfhnConfig)
    if sample is not None:
        h, w, c = sample.image.shape
        kwargs.setdefault("input_height", h)
        kwargs.setdefault("input_width", w)
        kwargs.setdefault("input_channels", c)
    return graph_mod.LfhnConfig(**kwargs)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _apply_threads(args):
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)


def _check_output_path(path, what):
    """Raise ConfigError unless path names a file that can be written.

    Checked before any data is loaded, so a run fails before its work
    rather than after it.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ConfigError(f"{what} {path} is a directory")
    if not os.path.isdir(parent):
        raise ConfigError(f"{what} {path}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"{what} {path}: directory {parent} is not writable")


def _check_no_overwrite(inputs, outputs):
    """Raise ConfigError if an output path resolves to an input or an earlier output."""
    seen = {os.path.realpath(p): (what, p) for what, p in inputs.items() if p}
    for what, path in outputs.items():
        other, other_path = seen.setdefault(os.path.realpath(path), (what, path))
        if other != what:
            raise ConfigError(f"{what} {path} is also the {other} {other_path}")


def _check_outside_corpus(directory, outputs):
    """Raise ConfigError if writing an output would change a file of the
    corpus in directory: an image or the manifest, as gen-data counts them."""
    from .data import CORPUS_SUFFIXES, MANIFEST_NAME

    corpus = os.path.realpath(directory)
    for what, path in outputs.items():
        # the name itself, which a save renames onto, and the file it leads to
        named = os.path.join(os.path.realpath(os.path.dirname(os.path.abspath(path))),
                             os.path.basename(path))
        for target in (named, os.path.realpath(path)):
            if os.path.dirname(target) == corpus and (
                    target.endswith(CORPUS_SUFFIXES)
                    or os.path.basename(target) == MANIFEST_NAME):
                raise ConfigError(f"{what} {path} is a file of the corpus {directory}")


def _error(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_gen_data(args):
    from . import data

    lights = data.default_light_roster(args.lights)
    try:
        seed = resolve_seed(args.seed)
        rows = data.generate_corpus(args.out, args.ids, lights=lights, seed=seed,
                                    height=args.size, width=args.size,
                                    channels=args.channels)
    except (OSError, ValueError) as err:
        return _error(str(err), EXIT_USAGE)
    print(f"wrote {len(rows)} images and {data.MANIFEST_NAME} to {args.out}")
    return EXIT_OK


def cmd_train(args):
    from . import data, graph
    from . import train as train_mod

    try:
        values = _merged_config(args)
        seed = resolve_seed(args.seed, values.get("seed"))
        log_path = values.get("log") or f"{args.out}.log.csv"
        inputs = {"run config": args.config, "root donor": values.get("root_from")}
        outputs = {"checkpoint": args.out, "epoch log": log_path}
        _check_no_overwrite(inputs, outputs)
        _check_outside_corpus(args.data, outputs)
        _check_output_path(args.out, "checkpoint")
        _check_output_path(log_path, "epoch log")
        if args.split != "none":  # before the corpus is read
            data.parse_split(args.split)
    except (OSError, ValueError) as err:  # ConfigError among them
        return _error(str(err), EXIT_USAGE)
    try:
        corpus = data.load_corpus(args.data)
    except (OSError, ValueError) as err:
        return _error(str(err), EXIT_MISMATCH)
    if not corpus:
        return _error(f"no samples found in {args.data}", EXIT_MISMATCH)
    samples = corpus
    if args.split != "none":
        samples, _ = data.split(corpus, args.split, seed=seed)
        if not samples:
            return _error(f"split {args.split!r} left nothing to train on", EXIT_MISMATCH)

    # from the whole corpus, so that eval can score the held-out side too
    inferred = "num_classes" not in values
    values.setdefault("num_classes", max(s.identity for s in corpus) + 1)
    try:
        cfg = _build_model_config(values, graph, sample=corpus[0])
        tcfg = train_mod.TrainConfig(**{**_fields_in(values, train_mod.TrainConfig),
                                        "seed": seed})
    except ValueError as err:
        return _error(str(err), EXIT_USAGE)
    root = {}
    if values.get("root_from"):  # keep the donor's conv1; the rest is freed before the build
        donor = values["root_from"]
        try:
            root = {name: p for name, p in graph.load_checkpoint(donor).params.items()
                    if name.startswith("conv1.")}
        except (OSError, ValueError) as err:  # CheckpointError among them
            return _error(f"root_from {donor}: {err}", EXIT_MISMATCH)
        got, want = root["conv1.kernel"].shape, graph.parameter_shapes(cfg)["conv1.kernel"]
        if got != want:  # the bias has the kernel's out-channels
            return _error(f"root_from {donor}: conv1.kernel is {got}, but this run's is {want}",
                          EXIT_MISMATCH)
    try:
        net = graph.build_lfhn(cfg, seed=seed)
    except (MemoryError, ValueError) as err:  # numpy: too many bytes, or too many elements
        classes = f"{cfg.num_classes} classes"
        if inferred:
            classes += (", inferred from the corpus's largest identity id "
                        f"{cfg.num_classes - 1}")
        return _error(f"cannot build the network for {classes}: {err}", EXIT_USAGE)
    net.params.update(root)
    if tcfg.freeze_root and not root:
        print("warning: freeze_root set without root_from; "
              "freezing the randomly initialized root layer", file=sys.stderr)

    try:
        _, log = train_mod.train(net, samples, tcfg)
    except train_mod.TrainingDiverged as err:
        return _error(f"{err}; no checkpoint written", EXIT_CHECK_FAILED)
    except ValueError as err:
        return _error(str(err), EXIT_MISMATCH)
    # the checkpoint first, so that a failed save leaves no epoch log
    try:
        graph.save_checkpoint(net, args.out)
    except OSError as err:
        return _error(f"checkpoint {args.out}: {err.strerror or err}", EXIT_USAGE)
    try:
        train_mod.write_log(log, log_path)
    except OSError as err:
        return _error(f"epoch log {log_path}: {err.strerror or err}", EXIT_USAGE)
    if log:
        epoch, loss, acc = log[-1]
        print(f"epoch {epoch}: mean_loss={loss:.6f} train_acc={acc:.4f}")
    print(f"saved checkpoint to {args.out}, epoch log to {log_path}")
    return EXIT_OK


def cmd_eval(args):
    from . import data, graph
    from .evaluate import evaluate, format_table

    try:
        seed = resolve_seed(args.seed)
        if args.out:
            _check_no_overwrite({"checkpoint": args.model}, {"table": args.out})
            _check_outside_corpus(args.data, {"table": args.out})
            _check_output_path(args.out, "table")
        if args.split != "none":  # before the checkpoint, which may be 1.4 GiB
            data.parse_split(args.split)
        net = graph.load_checkpoint(args.model)
    except (OSError, ValueError) as err:  # ConfigError and CheckpointError among them
        return _error(str(err), EXIT_USAGE)
    try:
        samples = data.load_corpus(args.data)
    except (OSError, ValueError) as err:
        return _error(str(err), EXIT_MISMATCH)
    if not samples:
        return _error(f"no samples found in {args.data}", EXIT_MISMATCH)
    if args.split != "none":
        _, samples = data.split(samples, args.split, seed=seed)
        if not samples:
            return _error(f"split {args.split!r} left nothing to evaluate",
                          EXIT_MISMATCH)
    try:
        table = evaluate(net, samples)
    except ValueError as err:
        return _error(str(err), EXIT_MISMATCH)
    if table.absent:
        print(f"note: pose bins {', '.join(map(str, table.absent))} have no samples; "
              "excluded from the mean", file=sys.stderr)
    print(format_table(table, args.style))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(format_table(table, "csv") + "\n")
        except OSError as err:
            return _error(str(err), EXIT_USAGE)
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _layer_predicate(layer):
    if layer is None:
        return None
    if layer == "conv":
        return lambda name: name.startswith("conv")
    if layer == "fc":
        return lambda name: name.startswith("fc")
    prefix = layer if layer.endswith(".") else layer + "."
    return lambda name: name.startswith(prefix)


def cmd_gradcheck(args):
    import numpy as np

    from . import graph
    from . import train as train_mod

    try:
        seed = resolve_seed(args.seed)
    except ConfigError as err:
        return _error(str(err), EXIT_USAGE)
    if not 0 < args.tol < math.inf:
        return _error(f"--tol must be finite and > 0, got {args.tol}", EXIT_USAGE)
    cfg = graph.tiny_config()
    net = graph.build_lfhn(cfg, seed=seed)
    train_mod.randomize_biases(net, seed=seed)
    rng = np.random.default_rng(seed + 1)
    images = rng.uniform(0.0, 1.0, (2, cfg.input_height, cfg.input_width,
                                    cfg.input_channels))
    labels = rng.integers(0, cfg.num_classes, size=2)
    try:
        report = train_mod.grad_check(net, images, labels, epsilon=args.epsilon,
                                      max_per_tensor=args.samples, seed=seed,
                                      param_filter=_layer_predicate(args.layer))
    except ValueError as err:
        return _error(str(err), EXIT_USAGE)
    if not report.checks:
        return _error(f"no parameters match layer filter {args.layer!r}", EXIT_USAGE)
    for line in report.format_lines():
        print(line)
    if report.passed(args.tol):
        print(f"OK: max relative error {report.max_rel_err:.3e} < {args.tol:g}")
        return EXIT_OK
    print(f"FAILED: max relative error {report.max_rel_err:.3e} >= {args.tol:g}")
    return EXIT_CHECK_FAILED


def cmd_shapes(args):
    from . import graph
    from . import train as train_mod

    try:
        values = _merged_config(args)
    except (OSError, ConfigError) as err:
        return _error(str(err), EXIT_USAGE)
    if args.input:
        try:
            h, w, c = (int(tok) for tok in args.input.split("x"))
        except ValueError:
            return _error(f"--input must look like 227x227x3, got {args.input!r}",
                          EXIT_USAGE)
        values.update(input_height=h, input_width=w, input_channels=c)
    if args.classes is not None:
        values["num_classes"] = args.classes
    try:
        cfg = _build_model_config(values, graph)
        # the training keys of the file are checked too, though no training runs
        train_mod.TrainConfig(**_fields_in(values, train_mod.TrainConfig))
    except ValueError as err:
        return _error(str(err), EXIT_USAGE)
    for name, shape in graph.shape_trace(cfg):
        printed = "x".join(str(e) for e in shape)
        print(f"{name:<10} {printed}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lfhn",
        description="multi-stream 1x1-convolution recognition network: data "
                    "generation, training, evaluation, checking",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_positive_int, default=None,
                        help="pin the BLAS thread pools only; checkpoint loads read "
                             "on one thread per CPU (1 = fully deterministic path)")
    common.add_argument("--seed", type=_non_negative_int, default=None,
                        help="random seed (falls back to LFHN_SEED, then 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common],
                       help="write a synthetic pose/illumination corpus")
    p.add_argument("--ids", type=_positive_int, required=True, help="number of identities")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lights", type=_positive_int, default=8,
                   help="number of lighting bins")
    p.add_argument("--size", type=_positive_int, default=67, help="square image extent")
    p.add_argument("--channels", type=int, choices=(1, 3), default=1)
    p.set_defaults(func=cmd_gen_data)

    split_protocols = "none | random[:frac] | holdout-light[:ids] | holdout-pose[:ids]"
    p = sub.add_parser("train", parents=[common],
                       help="train and checkpoint a model, on the whole corpus or on "
                            "the train side of a split")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--split", default="none",
                   help=f"{split_protocols}; training uses the train side, and eval "
                        "with the same --split and seed scores the held-out one")
    p.add_argument("--config", help="key = value run config file")
    p.add_argument("--log", help="epoch CSV path (default: <out>.log.csv)")
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--freeze-root", dest="freeze_root", action="store_const",
                   const=True, help="keep the root conv parameters fixed")
    p.add_argument("--augment", action="store_const", const=True,
                   help="random crop + mirror during training")
    p.add_argument("--root-from", dest="root_from",
                   help="checkpoint whose conv1 kernel and bias start the root conv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="rank-1 table for a checkpoint")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--split", default="none",
                   help=f"{split_protocols}; evaluation uses the held-out side")
    p.add_argument("--style", choices=("csv", "paper"), default="csv")
    p.add_argument("--out", help="also write the CSV table to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference check on a tiny network")
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--samples", type=int, default=32,
                   help="elements checked per parameter tensor")
    p.add_argument("--layer", help="restrict to one layer: a node name, or conv | fc")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("shapes", parents=[common],
                       help="print the symbolic shape trace of a configuration")
    p.add_argument("--config", help="key = value run config file")
    p.add_argument("--input", help="override input extents, e.g. 67x67x1")
    p.add_argument("--classes", type=int, help="override the class count")
    p.set_defaults(func=cmd_shapes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_threads(args)
    return args.func(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
