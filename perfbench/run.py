"""Benchmark entry point.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The program is imported from
./src, so no install step is needed. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, measured untraced;
with --trace 1 they are the per-layer metrics, from a run whose last set-up
and the second half of whose loop are traced. Spans and an environment record are
written under .perfbench_out/. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# graph nodes with per-layer metrics; desk_config and LfhnConfig() share them
NODES = ("conv1", "relu1", "pool1", "norm1", "conv2", "relu2", "conv3", "relu3",
         "conv4", "relu4", "concat", "conv5", "relu5", "fc6", "relu6", "fc7")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        _fail("BENCHMARK.json not found; run from the root of the checkout")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "lfhn", "__init__.py")):
        _fail(f"no program source at {SRC}/lfhn; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import lfhn.data
    import lfhn.evaluate
    import lfhn.graph
    import lfhn.layers
    import lfhn.tensor
    import lfhn.train
    return {name: getattr(lfhn, name)
            for name in ("data", "evaluate", "graph", "layers", "tensor", "train")}


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_record():
    """Thread count in effect and build, asked of the OpenBLAS that numpy loaded."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        lib = ctypes.CDLL(path)
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        return {"openblas_threads": lib.scipy_openblas_get_num_threads64_(),
                "openblas_config": lib.scipy_openblas_get_config64_().decode()}
    print(f"perfbench: warning: no scipy-openblas library under {libs}; "
          "the BLAS thread count is not recorded", file=sys.stderr)
    return {"openblas_threads": None, "openblas_config": None}


def environment():
    import numpy as np
    record = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "git_sha": _git_sha(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    record.update(_blas_record())
    return record


def run_loop(workload, seconds, first_op, tracer=None):
    """Closed loop: one operation at a time until `seconds` have passed."""
    outcomes = []
    op_id = first_op
    deadline = time.perf_counter() + seconds
    while True:
        try:
            if tracer is None:
                outcome = workload.operation(op_id)
            else:
                with tracer.operation(op_id):
                    outcome = workload.operation(op_id)
        except MemoryError:
            outcome = None
            print(f"perfbench: operation {op_id} raised MemoryError", file=sys.stderr)
        else:
            for problem in outcome.problems:
                print(f"perfbench: operation {op_id}: {problem}", file=sys.stderr)
        outcomes.append(outcome)
        op_id += 1
        if time.perf_counter() >= deadline:
            return outcomes


def _timed_outcomes(outcomes):
    return [o for o in outcomes if o is not None]


def _median_rate(outcomes, side):
    rates = [items / seconds for o in _timed_outcomes(outcomes)
             for items, seconds in getattr(o, side)]
    return statistics.median(rates) if rates else 0.0


def _median_op_s(outcomes):
    times = [o.timed_s for o in _timed_outcomes(outcomes)]
    return statistics.median(times) if times else 0.0


def end_to_end(outcomes, setup_times):
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB -> MiB
        "write_per_s": _median_rate(outcomes, "write"),
        "read_per_s": _median_rate(outcomes, "read"),
    }


def per_layer(tracer, traced, untraced):
    """Per-layer metrics; times are mean self ms.

    data.* come from the traced set-up, where desk-train generates and loads
    its corpus; every other metric comes from the traced operations.
    """
    summaries = {False: tracer.summary(setup=False), True: tracer.summary(setup=True)}

    def mean_ms(name, per=None):
        calls, self_s, _ = summaries[name.startswith("data.")].get(name, (0, 0.0, 0))
        per = calls if per is None else per
        return 1000.0 * self_s / per if per else 0.0

    def mean_bytes(name):
        calls, _, nbytes = summaries[name.startswith("data.")].get(name, (0, 0.0, 0))
        return nbytes / calls if calls else 0.0

    metrics = {}
    for node in NODES:
        metrics[f"layers.{node}.fwd_ms"] = mean_ms(f"layers.{node}.fwd")
        metrics[f"layers.{node}.bwd_ms"] = mean_ms(f"layers.{node}.bwd")
        metrics[f"layers.{node}.out_bytes"] = mean_bytes(f"layers.{node}.fwd")
    train_batches = summaries[False].get("train.sgd_step", (0,))[0]
    predict_batches = tracer.count_children("evaluate.predict", "graph.forward")
    metrics.update({
        "tensor.im2col_ms": mean_ms("tensor.im2col"),
        "tensor.col2im_ms": mean_ms("tensor.col2im"),
        "tensor.im2col_bytes": mean_bytes("tensor.im2col"),
        "graph.forward.self_ms": mean_ms("graph.forward"),
        "graph.backward.self_ms": mean_ms("graph.backward"),
        "graph.save_checkpoint_ms": mean_ms("graph.save_checkpoint"),
        "graph.load_checkpoint_ms": mean_ms("graph.load_checkpoint"),
        "graph.checkpoint_bytes": mean_bytes("graph.save_checkpoint"),
        "layers.softmax_xent_ms": mean_ms("layers.softmax_xent"),
        "train.sgd_step_ms": mean_ms("train.sgd_step"),
        "train.augment_ms": mean_ms("train.augment", per=train_batches),
        "train.train.self_ms": mean_ms("train.train", per=train_batches),
        "evaluate.evaluate.self_ms": mean_ms("evaluate.evaluate"),
        "evaluate.predict.self_ms": mean_ms("evaluate.predict", per=predict_batches),
        "data.generate_corpus.self_ms": mean_ms("data.generate_corpus"),
        "data.render_ms": mean_ms("data.render"),
        "data.write_image_ms": mean_ms("data.write_image"),
        "data.read_image_ms": mean_ms("data.read_image"),
        "data.bytes_written": mean_bytes("data.write_image"),
        "data.bytes_read": mean_bytes("data.read_image"),
    })
    rank1 = [o.rank1_pct for o in traced + untraced if o is not None and o.rank1_pct is not None]
    metrics["evaluate.rank1_mean_pct"] = statistics.median(rank1) if rank1 else 0.0
    plain, with_spans = _median_op_s(untraced), _median_op_s(traced)
    metrics["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0) if plain else 0.0
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _load_spec()
    modules = _import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = environment()
    print(json.dumps({"environment": env}), flush=True)

    run_dir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = None
    try:
        factory = workloads.WORKLOADS[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        setup_times = []
        for repeat in range(factory.setup_repeats):
            if workload is not None:
                workload.close()
                workload = None
            t0 = time.perf_counter()
            if tracer is not None and repeat == factory.setup_repeats - 1:
                with tracer.installed(modules), tracer.operation(tracing.SETUP_OP):
                    workload = factory(args.seed, run_dir)
            else:
                workload = factory(args.seed, run_dir)
            setup_times.append(time.perf_counter() - t0)

        if args.trace:
            untraced = run_loop(workload, args.seconds / 2, 0)
            with tracer.installed(modules):
                traced = run_loop(workload, args.seconds / 2, len(untraced), tracer)
            tracer.check({len(untraced) + i: o.timed_s
                          for i, o in enumerate(traced) if o is not None})
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
            outcomes = untraced + traced
            values = per_layer(tracer, traced, untraced)
            wanted = spec["per_layer"]
        else:
            outcomes = run_loop(workload, args.seconds, 0)
            values = end_to_end(outcomes, setup_times)
            wanted = spec["end_to_end"]
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(values) != {m["name"] for m in wanted}:
        _fail(f"metrics {sorted(set(values) ^ {m['name'] for m in wanted})} disagree "
              "between the benchmark and BENCHMARK.json")
    failed = sum(1 for o in outcomes if o is None or o.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "args": vars(args), **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
