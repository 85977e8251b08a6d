"""qmlgrid grid benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload qsvm_hf4 --seed 0 --seconds 25 --trace 0

Runs one workload grid through the public `bench.run_grid` on a fresh
`RecordStore`, in this process with `workers=1`, using the qmlgrid
sources under `src/` next to this directory. The split is pinned to
seed 0; `--seed` is the master seed that derives every cell seed (QNN
initial parameters, forest bootstraps).

--trace 0 repeats the grid while another repeat fits in `--seconds` (at
least once) and reports the end-to-end metrics: medians over repeats,
and set-up time as the median of several fresh-interpreter set-ups.
Times in the result are seconds at the reference speed of `speed.py`,
which cancels the drift of a shared machine; the table printed above the
result shows them next to the raw seconds.
--trace 1 runs the grid once untraced and once under `tracer.Tracer`,
reports the per-layer metrics and the tracing overhead, and writes the
spans to `perfbench/out/`.

Every run checks its outputs; the last stdout line is one JSON object
with keys correct, attempted, failed and metrics. A failed check prints
correct=false and exits with status 1.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1    # fixed so every commit is measured alike; <= any nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SPLIT_SEED = 0
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60

# spans every workload must record
COMMON_LAYERS = ("bench.run_grid", "bench.RecordStore.append",
                 "pipeline.stratified_split", "pipeline.SplitBundle.features",
                 "datasets.resolve")


@dataclass(frozen=True)
class Workload:
    dataset: str
    families: tuple
    features: tuple             # inclusive k range
    settings: dict
    exercises: tuple            # spans that must record calls
    bypasses: tuple             # spans that must record none
    design_share: tuple         # per-layer times the design says dominate


WORKLOADS = {
    "qsvm_hf4": Workload(
        "heart_failure", ("qsvm",), (4, 4), {},
        exercises=("statevec.apply_ops", "qkernel.embed", "svm.solve_dual"),
        bypasses=("circuit.run_batch", "qnn.parameter_shift_gradient",
                  "baselines.fit_tree", "svm.kernel_matrix"),
        design_share=("svm.solve_dual.s",)),
    "qnn_hf4": Workload(
        "heart_failure", ("qnn",), (4, 4),
        {"qnn_epochs": 1, "qnn_start_layers": 2, "qnn_max_layers": 2},
        exercises=("statevec.apply_ops", "circuit.run_batch",
                   "qnn.parameter_shift_gradient", "qnn.grow_layers"),
        bypasses=("svm.solve_dual", "qkernel.embed", "baselines.fit_tree"),
        design_share=("statevec.apply_ops.self_s", "circuit.run_batch.self_s")),
    "classical_diabetes": Workload(
        "diabetes", ("classical",), (2, 6), {},
        exercises=("svm.solve_dual", "svm.kernel_matrix", "baselines.fit_tree",
                   "baselines.fit_forest", "baselines.fit_logistic"),
        bypasses=("statevec.apply_ops", "circuit.run_batch", "qkernel.embed",
                  "qnn.parameter_shift_gradient"),
        design_share=("svm.solve_dual.s", "baselines.fit_tree.s")),
}


@dataclass
class Grid:
    """One timed run_grid call and what it left on disk. Times are raw
    seconds without the reference samples; `cell_scales` turn each cell's
    time into seconds at the reference speed, and `scale` does the same
    for the whole grid."""
    store_bytes: bytes
    sidecar_lines: int
    cell_times: list
    grid_s: float
    cpu_s: float
    cell_scales: list
    scale: float

    def cell_times_at_reference(self) -> list:
        return [t * s for t, s in zip(self.cell_times, self.cell_scales)]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    svm_cells: int = 0
    unconverged: int = 0
    problems: list = field(default_factory=list)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qmlgrid")
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ------------------------------------------------------------- machine

def _blas_threads_in_effect(np):
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_block(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_setting": BLAS_THREADS,
            "blas_threads_in_effect": _blas_threads_in_effect(np)}


# ---------------------------------------------------------------- runs

def setup_seconds(dataset_key: str) -> tuple:
    """Median of fresh-interpreter set-ups (import, resolve, split), raw
    and at the reference speed measured inside each probe."""
    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, probe, SRC, dataset_key, str(SPLIT_SEED)],
            check=True, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
        seconds, scale = map(float, out.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * scale)
    return statistics.median(raw), statistics.median(scaled)


def run_grid_once(wl: Workload, dataset, seed: int, workdir: str,
                  meter: speed.SpeedMeter) -> Grid:
    """Times one run_grid call while the meter samples on a timer; the
    samples' time is taken out of every time."""
    from qmlgrid import bench

    os.makedirs(workdir)
    store = bench.RecordStore(os.path.join(workdir, "store.jsonl"))
    settings = bench.RunSettings(master_seed=seed, **wl.settings)
    run_cell = bench.run_cell
    windows = []

    def windowed_run_cell(*args, **kwargs):
        start = time.perf_counter()
        try:
            return run_cell(*args, **kwargs)
        finally:
            windows.append((start, time.perf_counter()))

    meter.sample()
    bench.run_cell = windowed_run_cell
    cpu_sampling = meter.cpu_s
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with meter.in_background():
            bench.run_grid(wl.dataset, dataset, store, settings,
                           families=wl.families, feature_range=wl.features,
                           split_seed=SPLIT_SEED)
    finally:
        bench.run_cell = run_cell
    wall1, cpu1 = time.perf_counter(), time.process_time()
    grid_s = wall1 - wall0 - meter.spent(wall0, wall1)
    cpu_s = cpu1 - cpu0 - (meter.cpu_s - cpu_sampling)
    meter.sample()
    with open(store.path, "rb") as fh:
        data = fh.read()
    with open(store.path + ".timings") as fh:
        sidecar = [float(line.rsplit("\t", 1)[1]) for line in fh]
    # cells are appended in call order, so window i is sidecar line i; a
    # sample taken inside a cell is part of that cell's sidecar time
    cell_times = [max(t - meter.spent(a, b), 0.0)
                  for t, (a, b) in zip(sidecar, windows)]
    cell_scales = [meter.scale(a, b, speed.PERIOD_S) for a, b in windows]
    return Grid(data, len(sidecar), cell_times, grid_s, cpu_s, cell_scales,
                meter.scale(wall0, wall1))


def check_grid(wl: Workload, bundle, grid: Grid, tally: Tally) -> None:
    """Output checks on one store; errored cells are counted, not dropped."""
    from qmlgrid import bench, metrics

    lo, hi = wl.features
    n_cells = (hi - lo + 1) * sum(len(bench.GRIDS[f]()) for f in wl.families)
    records = [bench.ExperimentRecord.from_line(line)
               for line in grid.store_bytes.decode().splitlines()]
    cells = [r for r in records if r.family != "pca"]
    problems = tally.problems
    if len(cells) != n_cells or len(records) != n_cells + 1:
        problems.append(f"store has {len(records)} records, expected "
                        f"{n_cells} cells + 1 pca record")
    if grid.sidecar_lines != len(cells):
        problems.append(f"timings sidecar has {grid.sidecar_lines} lines "
                        f"for {len(cells)} cells")
    tally.attempted += len(cells)
    sizes = {s: len(bundle.indices(s)) for s in bundle.SPLITS}
    for r in cells:
        if r.error is not None:
            tally.failed += 1
            continue
        if "converged" in r.extra:
            tally.svm_cells += 1
            tally.unconverged += int(not r.extra["converged"])
        for split, size in sizes.items():
            m = getattr(r, split)
            total = m.tp + m.fp + m.fn + m.tn
            if total != size:
                problems.append(f"{r.key()} {split}: confusion counts sum to "
                                f"{total}, split has {size} rows")
            if metrics.Metrics.from_counts(m.tp, m.fp, m.fn, m.tn) != m:
                problems.append(f"{r.key()} {split}: precision/recall/F1 do "
                                f"not follow from the confusion counts")


def check_persisted(key: str, store_sha: str, counts: dict | None,
                    tally: Tally) -> None:
    """Earlier runs in this checkout of the same workload, seed and
    sources must have written the same store bytes and counts."""
    path = os.path.join(OUT, "state", key + ".json")
    state = {}
    if os.path.exists(path):
        with open(path) as fh:
            state = json.load(fh)
    if state.get("store_sha256", store_sha) != store_sha:
        tally.problems.append(f"store sha256 {store_sha} differs from an "
                              f"earlier run's {state['store_sha256']}")
    state.setdefault("store_sha256", store_sha)
    if counts is not None:
        for name, value in state.get("counts", {}).items():
            if counts.get(name) != value:
                tally.problems.append(f"count {name} = {counts.get(name)}, an "
                                      f"earlier traced run reported {value}")
        state.setdefault("counts", counts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def trace_checks(wl: Workload, totals: dict, tally: Tally) -> None:
    for name in COMMON_LAYERS + wl.exercises:
        if name not in totals:
            tally.problems.append(f"traced run recorded no {name} calls")
    for name in wl.bypasses:
        if name in totals:
            tally.problems.append(f"{name} was called {totals[name][0]} times "
                                  f"on a workload that bypasses it")


def exact_counts(layer: dict) -> dict:
    return {name: value for name, (value, unit) in layer.items()
            if unit in ("count", "B") or name == "qnn.forward_per_gradient"}


# ---------------------------------------------------------------- main

def emit(tally: Tally, metrics: dict) -> int:
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "qmlgrid", "__init__.py")):
        print(f"perfbench: no qmlgrid package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import numpy as np
    import qmlgrid
    if not os.path.abspath(qmlgrid.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported qmlgrid from {qmlgrid.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"machine": machine_block(np),
                      "workload": args.workload, "seed": args.seed,
                      "split_seed": SPLIT_SEED, "trace": args.trace}))
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tally = Tally()
    key = f"{args.workload}-seed{args.seed}-{source_digest()[:16]}"
    try:
        run = traced_run if args.trace else timed_run
        metrics = run(args, wl, workdir, tally, key)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return emit(tally, metrics)


def timed_run(args, wl, workdir, tally, key) -> dict:
    from qmlgrid import datasets, pipeline

    meter = speed.SpeedMeter()
    setup_raw, setup_s = setup_seconds(wl.dataset)
    dataset, origin = datasets.resolve(wl.dataset)
    bundle = pipeline.stratified_split(dataset, SPLIT_SEED)

    grids = []
    started = time.perf_counter()
    while True:
        grid = run_grid_once(wl, dataset, args.seed,
                             os.path.join(workdir, f"rep{len(grids)}"), meter)
        check_grid(wl, bundle, grid, tally)
        if grids and grid.store_bytes != grids[0].store_bytes:
            tally.problems.append(f"repeat {len(grids)} wrote different "
                                  f"store bytes than repeat 0")
        grids.append(grid)
        if time.perf_counter() - started + grid.grid_s > args.seconds:
            break
    store_sha = hashlib.sha256(grids[0].store_bytes).hexdigest()
    check_persisted(key, store_sha, None, tally)

    med = statistics.median
    grid_raw = med(g.grid_s for g in grids)
    grid_s = med(g.grid_s * g.scale for g in grids)
    cpu_raw = med(g.cpu_s for g in grids)
    cpu_s = med(g.cpu_s * g.scale for g in grids)
    cell_raw = med(t for g in grids for t in g.cell_times)
    cell_p50 = med(t for g in grids for t in g.cell_times_at_reference())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_share = tally.failed / tally.attempted
    unconverged_share = (tally.unconverged / tally.svm_cells
                         if tally.svm_cells else None)
    print(f"data: {origin} {wl.dataset}, split seed {SPLIT_SEED}, "
          f"{len(grids)} repeat(s) of {tally.attempted // len(grids)} cells")
    print(f"store sha256: {store_sha}")
    print(f"{'metric':>18} {'at ref speed':>12} {'raw':>12}")
    for name, value, raw, unit in (
            ("setup_s", setup_s, setup_raw, "s"),
            ("grid_s", grid_s, grid_raw, "s"),
            ("cpu_s", cpu_s, cpu_raw, "s"),
            ("cell_s_p50", cell_p50, cell_raw, "s"),
            ("peak_rss_mb", peak_rss_mb, peak_rss_mb, "MB"),
            ("failed_share", failed_share, failed_share, "ratio"),
            ("unconverged_share", unconverged_share, unconverged_share,
             "ratio")):
        if value is None:
            print(f"{name:>18} {'n/a (no SVM cells)':>25}")
        else:
            print(f"{name:>18} {value:12.6g} {raw:12.6g} {unit}")
    # failed_share travels as failed/attempted; unconverged_share is zero
    # or undefined on some workloads, so its count is a per-layer metric
    return {"setup_s": (setup_s, "s"), "grid_s": (grid_s, "s"),
            "cpu_s": (cpu_s, "s"), "cell_s_p50": (cell_p50, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


def traced_run(args, wl, workdir, tally, key) -> dict:
    from qmlgrid import datasets, pipeline
    from tracer import Tracer

    meter = speed.SpeedMeter()
    dataset, _ = datasets.resolve(wl.dataset)
    bundle = pipeline.stratified_split(dataset, SPLIT_SEED)
    plain = run_grid_once(wl, dataset, args.seed,
                          os.path.join(workdir, "plain"), meter)
    check_grid(wl, bundle, plain, tally)

    tracer = Tracer()
    tracer.install()
    try:
        traced_dataset, _ = datasets.resolve(wl.dataset)
        pipeline.stratified_split(traced_dataset, SPLIT_SEED)
        meter.listener = tracer.add_external
        traced = run_grid_once(wl, traced_dataset, args.seed,
                               os.path.join(workdir, "traced"), meter)
    finally:
        meter.listener = None
        tracer.uninstall()
    check_grid(wl, bundle, traced, tally)
    if traced.store_bytes != plain.store_bytes:
        tally.problems.append("traced run wrote different store bytes than "
                              "the untraced run")

    layer = tracer.layer_metrics()
    totals = tracer.span_totals()
    trace_checks(wl, totals, tally)
    store_sha = hashlib.sha256(plain.store_bytes).hexdigest()
    check_persisted(key, store_sha, exact_counts(layer), tally)

    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    layer["trace.grid_s"] = (traced.grid_s, "s")
    layer["trace.reference_scale"] = (traced.scale, "ratio")
    layer["trace.overhead_s"] = (
        traced.grid_s * traced.scale - plain.grid_s * plain.scale, "s")
    share = sum(layer[n][0] for n in wl.design_share) / traced.grid_s
    print(f"store sha256: {store_sha}")
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    print(f"untraced grid_s {plain.grid_s:.6g} s, traced {traced.grid_s:.6g} s")
    print(f"design share {' + '.join(wl.design_share)} = {share:.4f} of "
          f"traced grid_s")
    for name, (value, unit) in layer.items():
        print(f"{name:>42} {value:.6g} {unit}")
    return layer


if __name__ == "__main__":
    sys.exit(main())
