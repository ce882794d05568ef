"""Command line front end: gen-data | train | eval | gradcheck | shapes.

Exit codes: 0 success, 1 check failure (a failed gradcheck, or training that
diverged to a non-finite loss), 2 usage or config error (an output path that
cannot be written, or that names an input or the other output, included),
3 data/model mismatch. A command, or the parser for bad argv, refuses a run
by raising Refusal, which main prints as one `error:` line and returns as
the exit code. Heavy modules are imported inside the command handlers so
that --threads can pin the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3


class ConfigError(ValueError):
    pass


class Refusal(Exception):
    """A refused run: main prints the message as one error line and exits with code."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _refusing(code, prefix="", errors=(OSError, ValueError)):
    """Re-raise any of errors from the block as a Refusal with code, its
    message after prefix."""
    try:
        yield
    except errors as err:
        raise Refusal(f"{prefix}{err}", code) from err


# {key: type} of the config file keys that cmd_train reads itself rather
# than as model or training fields: two paths, and whether conv1 trains
RUN_KEYS = {"log": str, "root_from": str, "freeze_root": bool}


def _config_schema():
    """{key: type} of every key a run config file may contain.

    The keys are the fields of LfhnConfig and TrainConfig plus RUN_KEYS.
    Building it imports numpy, so call it only after --threads took effect.
    """
    from .graph import LfhnConfig, field_types
    from .train import TrainConfig

    return {**field_types(LfhnConfig), **field_types(TrainConfig), **RUN_KEYS}


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


def _values(args):
    """The run config file's values, with the command line's flags over them."""
    values = parse_config_file(args.config) if args.config else {}
    for key in _config_schema():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _config(cls, values, **defaults):
    """The config dataclass cls from those entries of values that are its
    fields; defaults fill the fields that values leave out."""
    from .graph import field_types

    return cls(**{**defaults, **{k: values[k] for k in field_types(cls) if k in values}})


def _at_least(n):
    """An argparse type: an integer that is at least n."""
    def integer(text):
        value = int(text)
        if value < n:
            raise argparse.ArgumentTypeError(f"must be >= {n}, got {value}")
        return value
    return integer


def _apply_threads(args):
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)


def _check_outputs(outputs, inputs, corpus):
    """Refuse (exit 2) an output path that resolves to an input or an earlier
    output, that would change a file of the corpus in directory corpus (an
    image or the manifest, as gen-data counts them), or that names no file
    that can be written.

    Checked before any data is loaded, so a run fails before its work
    rather than after it.
    """
    from .data import CORPUS_SUFFIXES, MANIFEST_NAME

    seen = {os.path.realpath(p): (what, p) for what, p in inputs.items() if p}
    for what, path in outputs.items():
        other, other_path = seen.setdefault(os.path.realpath(path), (what, path))
        if other != what:
            raise Refusal(f"{what} {path} is also the {other} {other_path}", EXIT_USAGE)
    for what, path in outputs.items():
        # the name itself, which a save renames onto, and the file it leads to
        named = os.path.join(os.path.realpath(os.path.dirname(os.path.abspath(path))),
                             os.path.basename(path))
        for target in (named, os.path.realpath(path)):
            if os.path.dirname(target) == os.path.realpath(corpus) and (
                    target.endswith(CORPUS_SUFFIXES)
                    or os.path.basename(target) == MANIFEST_NAME):
                raise Refusal(f"{what} {path} is a file of the corpus {corpus}", EXIT_USAGE)
    for what, path in outputs.items():
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise Refusal(f"{what} {path} is a directory", EXIT_USAGE)
        if not os.path.isdir(parent):
            raise Refusal(f"{what} {path}: directory {parent} does not exist", EXIT_USAGE)
        if not os.access(parent, os.W_OK):
            raise Refusal(f"{what} {path}: directory {parent} is not writable", EXIT_USAGE)


def _read_corpus(directory, protocol, seed, side):
    """(corpus, samples): every sample in directory, and the side of the split
    protocol that the command takes (0 train, 1 test), or the whole corpus
    under "none". Refuses (exit 3) a corpus that does not load, an empty
    one and an empty side."""
    from . import data

    with _refusing(EXIT_MISMATCH):
        corpus = data.load_corpus(directory)
    if not corpus:
        raise Refusal(f"no samples found in {directory}", EXIT_MISMATCH)
    if protocol == "none":
        return corpus, corpus
    samples = data.split(corpus, protocol, seed=seed)[side]
    if not samples:
        job = ("train on", "evaluate")[side]
        raise Refusal(f"split {protocol!r} left nothing to {job}", EXIT_MISMATCH)
    return corpus, samples


def cmd_gen_data(args):
    from . import data

    with _refusing(EXIT_USAGE):
        rows = data.generate_corpus(args.out, args.ids, args.lights, seed=args.seed or 0,
                                    height=args.size, width=args.size,
                                    channels=args.channels)
    print(f"wrote {len(rows)} images and {data.MANIFEST_NAME} to {args.out}")
    return EXIT_OK


def cmd_train(args):
    from . import data, graph
    from . import train as train_mod

    with _refusing(EXIT_USAGE):  # ConfigError among them
        values = _values(args)
        tcfg = _config(train_mod.TrainConfig, values)  # the seed: --seed, the file's, 0
        log_path = values.get("log") or f"{args.out}.log.csv"
        _check_outputs({"checkpoint": args.out, "epoch log": log_path},
                       {"run config": args.config, "root donor": values.get("root_from")},
                       args.data)
        if args.split != "none":  # before the corpus is read
            data.parse_split(args.split)
    corpus, samples = _read_corpus(args.data, args.split, tcfg.seed, side=0)

    # from the whole corpus, so that eval can score the held-out side too
    h, w, c = corpus[0].image.shape
    with _refusing(EXIT_USAGE):
        cfg = _config(graph.LfhnConfig, values, input_height=h, input_width=w,
                      input_channels=c, num_classes=max(s.identity for s in corpus) + 1)
    root = {}
    if values.get("root_from"):  # keep the donor's conv1; the rest is freed before the build
        donor = values["root_from"]
        with _refusing(EXIT_MISMATCH, f"root_from {donor}: "):  # CheckpointError among them
            root = {name: p for name, p in graph.load_checkpoint(donor).params.items()
                    if name.startswith("conv1.")}
        got, want = root["conv1.kernel"].shape, graph.parameter_shapes(cfg)["conv1.kernel"]
        if got != want:  # the bias has the kernel's out-channels
            raise Refusal(f"root_from {donor}: conv1.kernel is {got}, but this run's is {want}",
                          EXIT_MISMATCH)
    classes = f"{cfg.num_classes} classes"
    if "num_classes" not in values:
        classes += f", inferred from the corpus's largest identity id {cfg.num_classes - 1}"
    # numpy: too many bytes, or too many elements
    with _refusing(EXIT_USAGE, f"cannot build the network for {classes}: ",
                   (MemoryError, ValueError)):
        params = graph.build_lfhn(cfg, seed=tcfg.seed).params | root
    frozen = {"conv1"} if values.get("freeze_root") else set()
    net = graph.NetworkGraph(cfg, params, frozen)
    if frozen and not root:
        print("warning: freeze_root set without root_from; "
              "freezing the randomly initialized root layer", file=sys.stderr)

    try:
        _, log = train_mod.train(net, samples, tcfg)
    except train_mod.TrainingDiverged as err:
        raise Refusal(f"{err}; no checkpoint written", EXIT_CHECK_FAILED) from err
    except ValueError as err:
        raise Refusal(str(err), EXIT_MISMATCH) from err
    # the checkpoint first, so that a failed save leaves no epoch log
    try:
        graph.save_checkpoint(net, args.out)
    except OSError as err:
        raise Refusal(f"checkpoint {args.out}: {err.strerror or err}", EXIT_USAGE) from err
    try:
        train_mod.write_log(log, log_path)
    except OSError as err:
        raise Refusal(f"epoch log {log_path}: {err.strerror or err}", EXIT_USAGE) from err
    if log:
        epoch, loss, acc = log[-1]
        print(f"epoch {epoch}: mean_loss={loss:.6f} train_acc={acc:.4f}")
    print(f"saved checkpoint to {args.out}, epoch log to {log_path}")
    return EXIT_OK


def cmd_eval(args):
    from . import data, graph
    from .evaluate import evaluate, format_table

    with _refusing(EXIT_USAGE):  # CheckpointError among them
        if args.out:
            _check_outputs({"table": args.out}, {"checkpoint": args.model}, args.data)
        if args.split != "none":  # before the checkpoint, which may be 1.4 GiB
            data.parse_split(args.split)
        net = graph.load_checkpoint(args.model)
    _, samples = _read_corpus(args.data, args.split, args.seed or 0, side=1)
    with _refusing(EXIT_MISMATCH, errors=ValueError):
        table = evaluate(net, samples)
    if table.absent:
        print(f"note: pose bins {', '.join(map(str, table.absent))} have no samples; "
              "excluded from the mean", file=sys.stderr)
    print(format_table(table, args.style))
    if args.out:
        with _refusing(EXIT_USAGE, errors=OSError):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(format_table(table, "csv") + "\n")
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

    if not 0 < args.tol < math.inf:
        raise Refusal(f"--tol must be finite and > 0, got {args.tol}", EXIT_USAGE)
    seed = args.seed or 0
    cfg = graph.tiny_config()
    net = graph.build_lfhn(cfg, seed=seed)
    train_mod.randomize_biases(net, seed=seed)
    rng = np.random.default_rng(seed + 1)
    images = rng.uniform(0.0, 1.0, (2, cfg.input_height, cfg.input_width,
                                    cfg.input_channels))
    labels = rng.integers(0, cfg.num_classes, size=2)
    with _refusing(EXIT_USAGE, errors=ValueError):
        report = train_mod.grad_check(net, images, labels, epsilon=args.epsilon,
                                      max_per_tensor=args.samples, seed=seed,
                                      param_filter=_layer_predicate(args.layer))
    if not report.checks:
        raise Refusal(f"no parameters match layer filter {args.layer!r}", EXIT_USAGE)
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

    with _refusing(EXIT_USAGE):
        values = _values(args)  # --classes among the flags
    if args.input:
        try:
            h, w, c = (int(tok) for tok in args.input.split("x"))
        except ValueError:
            raise Refusal(f"--input must look like 227x227x3, got {args.input!r}",
                          EXIT_USAGE) from None
        values.update(input_height=h, input_width=w, input_channels=c)
    with _refusing(EXIT_USAGE):
        cfg = _config(graph.LfhnConfig, values)
        # the training keys of the file are checked too, though no training runs
        _config(train_mod.TrainConfig, values)
    for name, shape in graph.shape_trace(cfg):
        printed = "x".join(str(e) for e in shape)
        print(f"{name:<10} {printed}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints one error line, not a usage block
        raise Refusal(message, EXIT_USAGE)


def build_parser():
    parser = _Parser(
        prog="lfhn",
        description="multi-stream 1x1-convolution recognition network: data "
                    "generation, training, evaluation, checking",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_at_least(1), default=None,
                        help="pin the BLAS thread pools only; checkpoint loads read "
                             "on one thread per CPU (1 = fully deterministic path)")
    common.add_argument("--seed", type=_at_least(0), default=None,
                        help="random seed >= 0 (default 0; train takes its run "
                             "config's seed first)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common],
                       help="write a synthetic pose/illumination corpus")
    p.add_argument("--ids", type=_at_least(1), required=True, help="number of identities")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lights", type=_at_least(1), default=8,
                   help="number of lighting bins")
    p.add_argument("--size", type=_at_least(1), default=67, help="square image extent")
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
    p.add_argument("--classes", dest="num_classes", metavar="CLASSES", type=int,
                   help="override the class count")
    p.set_defaults(func=cmd_shapes)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _apply_threads(args)
        return args.func(args)
    except Refusal as refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return refusal.code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
