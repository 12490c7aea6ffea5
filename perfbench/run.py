"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train_mix --seed 1 --seconds 36 --trace 0

Set-up runs several times and the median counts; the import of numpy
and the package is timed in fresh interpreters and its median added.
Then passes over the same inputs repeat until ``--seconds`` would be
exceeded, and the median pass wall time is reported, scaled to a
reference host speed (see ``calibration_s``). Correctness checks run
after the timed loop. With ``--trace 1`` passes alternate between
untraced and traced, the per-layer metrics come from the traced ones and
``tracing_overhead_s`` is the difference of the two medians.

Results, the run manifest and (traced runs) the spans go to
``perfbench/results/<workload>-seed<n>-trace<t>/``. The last line on
standard output is the JSON summary.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: each workload is a single closed-loop client, and a fixed
# thread count keeps timings comparable between machines and runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "pageorder").is_dir():
    sys.exit(f"no package source in {ROOT / 'src'}: the benchmark measures the checkout it sits in")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gate import Tally  # noqa: E402
from tracing import Instrumentation, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
IMPORT_REPS = 3
MIN_PASSES = 4
IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, pageorder.cli; print(time.perf_counter() - t)"

# On a shared host, speed can drift by a third over minutes, far more than
# the changes the benchmark must resolve. Every set-up and pass is
# therefore bracketed by runs of a fixed calibration kernel that no change to
# the package can affect, and its time is scaled to the host speed at which
# that kernel takes CALIBRATION_REF_S, judged by the mean of the two runs
# around it. Raw wall times stay in results.json.
CALIBRATION_STEPS = 110
CALIBRATION_REF_S = 0.075


class _Node:
    __slots__ = ("data", "parent", "backward")

    def __init__(self, data, parent=None, backward=None):
        self.data = data
        self.parent = parent
        self.backward = backward


def calibration_s() -> float:
    """Wall time of a kernel shaped like the program's work, using numpy only.

    Small matmuls, softmax and normalisation on a batch and on a single
    row, graph nodes holding closures, a reverse sweep and a masked argmax.
    """
    rng = np.random.default_rng(0)
    inputs = (rng.standard_normal((16, 12, 64)).astype(np.float32), rng.standard_normal((1, 20, 64)).astype(np.float32))
    w = (rng.standard_normal((64, 64)) * 0.1).astype(np.float32)
    start = perf_counter()
    for _ in range(CALIBRATION_STEPS):
        for x in inputs:
            node = _Node(x)
            nodes = []
            for _ in range(3):
                a = node.data @ w
                e = np.exp(a - a.max(axis=-1, keepdims=True))
                p = e / e.sum(axis=-1, keepdims=True)
                m = (p - p.mean(axis=-1, keepdims=True)) / np.sqrt(p.var(axis=-1, keepdims=True) + 1e-5)
                node = _Node(np.tanh(m) + node.data * 0.5, node, lambda g, m=m: g * m)
                nodes.append(node)
            grads = {id(n): n.backward(n.data) for n in reversed(nodes)}
            s = node.data.sum(axis=-1)
            int(np.where(s > 0, s, -1e30).argmax()) + len(grads)
    return perf_counter() - start


def _reference(wall: float, bracket: list[float]) -> float:
    """``wall`` scaled to the reference host speed, judged by the calibration runs around it."""
    return wall * CALIBRATION_REF_S / statistics.mean(bracket)


def import_times() -> list[float]:
    """Seconds to import numpy and the package, once per fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(probe.stdout))
    return times


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if it is OpenBLAS."""
    import ctypes

    try:
        paths = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def manifest(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {"set": BLAS_THREADS, "reported": _blas_threads()},
        "git_revision": _git_revision(),
        "platform": platform.platform(),
    }


def run(args) -> dict:
    imports = import_times()
    out_dir = BENCH_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    workdir = out_dir / "work"
    tracer = Tracer()
    tally = Tally()

    setup_runs = []
    setup_times = []
    # timed unit i (the set-ups, then the passes) ran between speed[i] and speed[i + 1]
    speed = [calibration_s()]
    for rep in range(SETUP_REPS):
        workload = WORKLOADS[args.workload]()
        tracer.run_id = f"setup{rep}"
        tracer.enabled = bool(args.trace)
        setup_runs.append(tracer.run_id)
        gc.collect()
        start = perf_counter()
        workload.setup(args.seed, tracer, workdir)
        setup_times.append(perf_counter() - start)
        tracer.enabled = False
        speed.append(calibration_s())

    instrumentation = Instrumentation(tracer)
    first_outputs: dict = {}
    passes: list[dict] = []
    loop_start = perf_counter()
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        iteration_start = perf_counter()
        workload.reset()
        gc.collect()
        if traced:
            instrumentation.install()
            tracer.run_id = f"pass{index}"
            tracer.enabled = True
        wall = 0.0
        for position, (label, op) in enumerate(workload.operations()):
            start = perf_counter()
            with tracer.span(label):
                output = tally.run(label, op)
            wall += perf_counter() - start
            if position not in first_outputs:
                first_outputs[position] = output
            else:
                tally.check(f"{label} (op {position}) gives the same output in every pass", output == first_outputs[position])
        tracer.enabled = False
        instrumentation.remove()
        speed.append(calibration_s())
        passes.append({"run_id": f"pass{index}", "traced": traced, "wall_s": wall, "ref_s": _reference(wall, speed[-2:]),
                       "iteration_s": perf_counter() - iteration_start})  # fmt: skip
        typical = statistics.median(p["iteration_s"] for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() - loop_start + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.gate(tally, args.seed)

    scale = CALIBRATION_REF_S / statistics.mean(speed)
    setup_ref = [_reference(t, speed[i : i + 2]) for i, t in enumerate(setup_times)]
    untraced = [p["ref_s"] for p in passes if not p["traced"]]
    pass_s = statistics.median(untraced)
    summary = {
        "setup_s": (statistics.median(imports) * scale + statistics.median(setup_ref), "s"),
        **workload.summary(pass_s),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (tally.failed_frac, "fraction"),
    }
    if args.trace:
        overhead = statistics.median(p["ref_s"] for p in passes if p["traced"]) - pass_s
        metrics = per_layer_metrics(tracer, [p["run_id"] for p in passes if p["traced"]], setup_runs, overhead / scale)
        for metric in metrics.values():
            if metric["unit"] == "s":
                metric["value"] *= scale
    else:
        metrics = {
            "setup_s": {"value": summary["setup_s"][0], "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest(args), indent=2) + "\n")
    details = {
        "metrics": metrics,
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "import_times_s": imports,
        "speed_scale": scale,
        "calibrations_s": speed,
        "setup_times_s": setup_times,
        "setup_ref_s": setup_ref,
        "passes": passes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }
    (out_dir / "results.json").write_text(json.dumps(details, indent=2) + "\n")
    if args.trace:
        with (out_dir / "spans.jsonl").open("w") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")

    for name, (value, unit) in summary.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
