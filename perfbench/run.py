"""graphlab benchmark: one workload, one process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--seed`` chooses the random-tree inputs,
the query vertices and the op order; the program only sees the generated
inputs.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and
traced rounds of the same ops alternate and it holds the per-layer
metrics instead.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
from dataclasses import dataclass  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: on two cores a second thread made no op faster and
# widened the spread.  Pinned before numpy loads OpenBLAS.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# graphlab's optional thread pool stays off.
os.environ.pop("GRAPHLAB_THREADS", None)


def pin_mmap_threshold():
    """Fix glibc's mmap threshold at its initial 128 KiB.

    glibc raises the threshold after large frees, so later arrays come
    from the heap and fragment it, and peak RSS would depend on the op
    order.  A fixed threshold gives every op the allocator a fresh
    ``graphlab`` process starts with.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    M_MMAP_THRESHOLD = -3
    return bool(libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024))


MMAP_THRESHOLD_PINNED = pin_mmap_threshold()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up is sampled at the start and at evenly spaced points of the
# timed loop, so its median does not rest on one phase of a noisy host
SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import argparse, gc, hashlib, json, os, platform, resource, shutil, statistics, "
    "subprocess, sys; import numpy, scipy.linalg, graphlab, graphlab.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401
        import graphlab  # noqa: F401
        import graphlab.cli  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import graphlab from {ROOT}/src: {exc}")


# ------------------------------------------------------------------ running


@dataclass(eq=False)
class Record:
    label: str
    seconds: float
    misses: list
    error: str | None

    @property
    def ok(self):
        return not self.misses and self.error is None


def run_op(op, records, tracer=None, op_id=None):
    gc.collect()
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # an op that raises counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    misses = []
    if error is None:
        # parsing big outputs allocates millions of objects; collector
        # passes would cost more than the parse
        gc.disable()
        try:
            misses = op.check(out)
        except Exception as exc:  # a malformed output fails its check
            misses = [("check_raised", f"{type(exc).__name__}: {exc}")]
        finally:
            gc.enable()
    if tracer is not None and op.output and os.path.exists(op.output):
        tracer.count("cli.bytes_written", os.path.getsize(op.output))
    records.append(Record(op.label, seconds, misses, error))
    return seconds


def import_seconds():
    """Import time of a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def set_up(workload, ctx, tracer=None):
    """Generate the documents and run one warm-up op; returns seconds."""
    t0 = time.perf_counter()
    workload.setup(ctx)
    workload.warmup(ctx)()
    seconds = time.perf_counter() - t0
    if tracer is not None:
        for path in ctx.docs.values():
            tracer.count("cli.bytes_written", os.path.getsize(path))
    return seconds


def measure(workload, ctx, seconds, tracer, between=None, marks=()):
    """Whole rounds until ``seconds`` of wall time are used up.

    Whole rounds keep the op mix identical between runs.  With a tracer,
    every round runs once untraced and then once traced.  ``between`` is
    called once after the first round past each mark (in seconds), and
    for any marks left at the end; its time is not counted.
    """
    records, overhead = [], [0.0, 0.0]
    marks = list(marks)
    start = time.perf_counter()
    rounds = 0
    while True:
        ops = workload.round(ctx)
        overhead[0] += sum(run_op(op, records) for op in ops)
        if tracer is not None:
            tracer.install()
            try:
                overhead[1] += sum(
                    run_op(op, records, tracer, f"r{rounds}.{i}") for i, op in enumerate(ops)
                )
            finally:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        if marks and elapsed >= marks[0]:
            marks.pop(0)
            t0 = time.perf_counter()
            between()
            start += time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            for _ in marks:
                between()
            return records, rounds, overhead


# ------------------------------------------------------------------ metrics


def tail(times, percentile):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(times)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def blas_threads():
    """Thread count OpenBLAS reports, read through its own entry point."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "graphlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def provenance(args, records, rounds):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": blas_threads(),
        "mmap_threshold_pinned": MMAP_THRESHOLD_PINNED,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "rounds": rounds,
        "ops": len(records),
    }


def main():
    args = parse_args()
    import_program()
    t_import = time.perf_counter() - T_START

    import numpy as np

    import workloads
    from tracer import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    wspec = spec["workloads"][args.workload]

    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = workloads.Context(workdir, args.seed, np.random.default_rng(args.seed), spec["tolerances"])

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        try:
            setup_samples = [t_import + set_up(workload, ctx, tracer)]
        finally:
            tracer.uninstall()
        ctx.load_oracle_graphs()
        records, rounds, overhead = measure(workload, ctx, args.seconds, tracer)
    else:
        setup_samples = [t_import + set_up(workload, ctx)]
        ctx.load_oracle_graphs()
        marks = [args.seconds * k / SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)]
        records, rounds, overhead = measure(
            workload, ctx, args.seconds, None,
            lambda: setup_samples.append(import_seconds() + set_up(workload, ctx)), marks,
        )
    for path in (ctx.out_json, ctx.out_csv):
        if os.path.exists(path):
            os.remove(path)

    known = {(k["op"], k["check"]) for k in spec["known_seed_defects"]
             if k["workload"] == args.workload}
    failed = [r for r in records if not r.ok]
    unexpected = [r for r in failed
                  if r.error is not None or any((r.label, c) not in known for c, _ in r.misses)]
    times = [r.seconds for r in records]
    pct = wspec["tail_percentile"]
    tail_s, beyond = tail(times, pct)

    if tracer is None:
        values = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_samples),
        }
        declared = bench["end_to_end"]
    else:
        values = tracer.layer_metrics([m["name"] for m in bench["per_layer"]], rounds)
        values["trace.overhead_frac"] = overhead[1] / overhead[0] - 1.0
        declared = bench["per_layer"]
        tracer.dump(os.path.join(workdir, "spans.jsonl"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    prov = provenance(args, records, rounds)
    summary = {
        "provenance": prov,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "ops_failed_frac": len(failed) / len(records),
        "setup_samples_s": setup_samples,
        "op_seconds": {
            label: [r.seconds for r in records if r.label == label]
            for label in sorted({r.label for r in records})
        },
        "failures": [
            {"op": r.label, "error": r.error, "misses": r.misses,
             "known_at_seed": r not in unexpected}
            for r in failed
        ],
        "metrics": metrics,
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'ops_failed_frac':40s} {summary['ops_failed_frac']:.6g} frac "
          f"({len(failed)} of {len(records)} ops)")
    print(f"op_tail_s is p{pct}: {beyond} samples beyond it")
    by_label = {}
    for r in failed:
        by_label.setdefault(r.label, []).append(r)
    for label, rs in sorted(by_label.items()):
        first = rs[0].error or "; ".join(f"{c}: {msg}" for c, msg in rs[0].misses[:2])
        tag = "known at seed" if rs[0] not in unexpected else "UNEXPECTED"
        print(f"FAIL {label} x{len(rs)} [{tag}] {first}")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
