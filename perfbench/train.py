"""The ``train`` workload: HSGD* on the ``processes`` backend.

A Yahoo!Music-shaped synthetic matrix is trained for a fixed number of
epochs by one CPU worker and one GPU worker (two worker processes),
repeatedly until the measuring time is spent.  Each repetition is a
fresh trainer: calibrate, split, fit.  Medians over repetitions are
reported.
"""

from __future__ import annotations

import dataclasses
import os
import time

from common import Checks, Tracer, median, percentile, proc_cpu_s

from repro.config import HardwareConfig
from repro.core import HeterogeneousTrainer, nonuniform_partition
from repro.datasets import get_dataset
from repro.datasets.splits import holdout_split
from repro.datasets.synthetic import generate_synthetic_matrix
from repro.exec import Callback
from repro.sgd import FactorModel, rmse, sgd_block_minibatch_local
from repro.shm import live_segment_names
from repro.sparse import BlockStore

MIN_REPS = 3
#: With two workers an epoch boundary falls while the other worker's task
#: is still running: that task counts toward the next epoch, the boundary
#: RMSE is taken while it writes, and after the last boundary it is
#: drained into the returned model.  The reported RMSE therefore describes
#: the model only to within this relative gap, which ``exec.final_rmse_gap``
#: reports as measured (about 0.1% on this workload).
RMSE_TOLERANCE = 0.01


def make_inputs(cfg: dict, seed: int):
    spec = get_dataset(cfg["dataset"])
    matrix, _, _ = generate_synthetic_matrix(dataclasses.replace(spec.synthetic, seed=seed))
    train, test = holdout_split(matrix, spec.test_fraction, seed=seed)
    training = spec.recommended_training(iterations=cfg["epochs"], latent_factors=cfg["latent"], seed=seed)
    return spec, train, test, training


class _EpochClock(Callback):
    """Wall-clock time and engine stamp of every epoch boundary."""

    def __init__(self) -> None:
        self.marks = []

    def on_epoch_end(self, report, session):
        self.marks.append((time.monotonic(), report.engine_time, report.test_rmse))


def _fit_once(trainer, train, test, cfg, tracer, root):
    """One calibrate + split + fit repetition; returns its measurements."""
    t0 = time.monotonic()
    trainer.calibrate(train)
    t1 = time.monotonic()
    split = trainer.workload_split(train)
    t2 = time.monotonic()
    clock = _EpochClock()
    cpu_self0 = proc_cpu_s(os.getpid())
    cpu_all0 = proc_cpu_s(os.getpid(), children=True)
    result = trainer.fit(
        train,
        test,
        iterations=cfg["epochs"],
        backend=cfg["backend"],
        alpha_override=split.alpha,
        callbacks=[clock],
    )
    t3 = time.monotonic()
    cpu_self = proc_cpu_s(os.getpid()) - cpu_self0
    cpu_all = proc_cpu_s(os.getpid(), children=True) - cpu_all0
    trace = result.trace
    tasks = trace.tasks
    # Task times are on the engine's clock (0 at launch).  The launch
    # instant is placed at the earliest boundary-report time minus its
    # engine stamp: late by the fastest report's lag (about a
    # millisecond: one RMSE evaluation of the test set).
    clock_start = min(wall - stamp for wall, stamp, _ in clock.marks)
    first_start = min(task.start_time for task in tasks)
    last_end = max(task.end_time for task in tasks)
    rep = {
        "calibrate_s": t1 - t0,
        "split_s": t2 - t1,
        "launch_s": clock_start + first_start - t2,
        "teardown_s": t3 - (clock_start + last_end),
        "engine_s": last_end - first_start,
        "fit_s": t3 - t2,
        "points": trace.total_points(),
        "alpha": split.alpha,
        "cpu_driver_s": cpu_self,
        "cpu_workers_s": cpu_all - cpu_self,
        "result": result,
        "marks": clock.marks,
        "epochs": len(trace.iterations),
    }
    rep["setup_s"] = rep["calibrate_s"] + rep["split_s"] + rep["launch_s"]
    starts = [clock_start + first_start] + [wall for wall, _, _ in clock.marks[:-1]]
    rep["epoch_s"] = [wall - start for (wall, _, _), start in zip(clock.marks, starts)]
    if tracer.enabled:
        rep_span = tracer.add("train.rep", t0, t3, root)
        tracer.add("costmodel.calibrate", t0, t1, rep_span)
        tracer.add("costmodel.split", t1, t2, rep_span)
        fit_span = tracer.add("exec.fit", t2, t3, rep_span)
        tracer.add("exec.launch", t2, clock_start + first_start, fit_span)
        for start, (wall, _, _) in zip(starts, clock.marks):
            tracer.add("exec.epoch", start, wall, fit_span)
        rep["lanes"] = _worker_lanes(tasks, clock_start, first_start, last_end)
    return rep


def _worker_lanes(tasks, clock_start, first_start, last_end):
    """Per-worker spans: tasks under an engine-interval root."""
    lanes = {}
    for task in tasks:
        lane = lanes.setdefault(task.worker_index, Tracer(True))
        if not lane.spans:
            lane.add("worker.idle", clock_start + first_start, clock_start + last_end)
        name = "gpu.task" if task.is_gpu else "cpu.task"
        lane.add(name, clock_start + task.start_time, clock_start + task.end_time, 0)
    return lanes


def _exec_layers(reps, n_workers, nnz):
    """Per-layer numbers mined from the ExecutionTraces of every rep."""
    gaps, boundaries, busy_shares, stolen, imbalance, gpu_gap, per_epoch = [], [], [], [], [], [], []
    for rep in reps:
        result = rep["result"]
        tasks = sorted(result.trace.tasks, key=lambda task: task.start_time)
        by_worker = {}
        for task in tasks:
            by_worker.setdefault(task.worker_index, []).append(task)
        for worker_tasks in by_worker.values():
            gaps.extend(b.start_time - a.end_time for a, b in zip(worker_tasks, worker_tasks[1:]))
        by_epoch = {}
        for task in tasks:
            by_epoch.setdefault(task.iteration, []).append(task)
        for epoch in sorted(by_epoch)[1:]:
            if epoch - 1 in by_epoch:
                last_end = max(task.end_time for task in by_epoch[epoch - 1])
                first_start = min(task.start_time for task in by_epoch[epoch])
                boundaries.append(first_start - last_end)
        busy = [sum(task.duration for task in worker_tasks) for worker_tasks in by_worker.values()]
        busy_shares.append(sum(busy) / (n_workers * rep["engine_s"]))
        imbalance.append(max(busy) / (sum(busy) / len(busy)))
        stolen.append(sum(1 for task in tasks if task.stolen) / len(tasks))
        gpu_points = sum(task.points for task in tasks if task.is_gpu)
        gpu_gap.append(gpu_points / rep["points"] - rep["alpha"])
        per_epoch.append(len(tasks) / rep["epochs"])
    return {
        "exec.dispatch_gap_ms.p50": 1e3 * percentile(gaps, 50),
        "exec.dispatch_gap_ms.p90": 1e3 * percentile(gaps, 90),
        "exec.boundary_ms.p50": 1e3 * median(boundaries),
        "exec.busy_share": median(busy_shares),
        "sched.worker_imbalance": median(imbalance),
        "sched.stolen_share": median(stolen),
        "sched.gpu_share_gap": median(gpu_gap),
        "exec.tasks_per_epoch": median(per_epoch),
        "exec.update_ratio": median([rep["points"] / (rep["epochs"] * nnz) for rep in reps]),
    }


def _kernel_probe(cfg, train, training, alpha, seed):
    """Cold gather of every block, then the SGD kernel alone on one core."""
    grid = nonuniform_partition(train, alpha, cfg["cpu_workers"], cfg["gpu_workers"])
    blocks = list(grid.iter_blocks())
    start = time.perf_counter()
    store = BlockStore(train)
    data = [store.block_data(block) for block in blocks]
    gather_s = time.perf_counter() - start
    model = FactorModel.initialize(
        train.n_rows, train.n_cols, training.latent_factors, seed=seed, scale=training.effective_init_scale
    )
    rates = []
    for _ in range(3):
        points = 0
        start = time.perf_counter()
        for record in data:
            if record.nnz:
                points += sgd_block_minibatch_local(
                    model.p,
                    model.q,
                    record.local_rows,
                    record.local_cols,
                    record.vals,
                    training.learning_rate,
                    training.reg_p,
                    training.reg_q,
                    record.row_range,
                    record.col_range,
                    batch_size=training.effective_batch_size,
                    validate=False,
                )
        rates.append(points / (time.perf_counter() - start))
    return gather_s, median(rates)


def run(cfg: dict, seed: int, seconds: float, tracer: Tracer) -> dict:
    spec, train, test, training = make_inputs(cfg, seed)
    checks = Checks()
    epochs = cfg["epochs"]
    hardware = HardwareConfig(cpu_threads=cfg["cpu_workers"], gpu_count=cfg["gpu_workers"])
    n_workers = cfg["cpu_workers"] + cfg["gpu_workers"]
    root = tracer.add("train.workload", 0.0, 0.0)
    begin = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - begin < seconds:
        trainer = HeterogeneousTrainer("hsgd_star", hardware=hardware, training=training, seed=seed)
        checks.attempt(epochs)
        rep = _fit_once(trainer, train, test, cfg, tracer, root)
        reps.append(rep)
        result = rep["result"]
        done = rep["epochs"]
        reported = result.final_test_rmse
        recomputed = rmse(result.model, test)
        rep["test_rmse"] = recomputed
        rep["rmse_gap"] = (recomputed - reported) / reported
        leaked = live_segment_names()
        problems = {
            "epochs_missing": done != epochs,
            "rmse_mismatch": abs(rep["rmse_gap"]) > RMSE_TOLERANCE,
            "updates_lost": rep["points"] < done * train.nnz,
            "shm_leaked": bool(leaked),
        }
        checks.require(not problems["rmse_mismatch"], f"reported test RMSE {reported!r}, recomputed {recomputed!r}")
        checks.require(not problems["updates_lost"], f"{rep['points']} updates for {done} epochs of {train.nnz}")
        checks.require(not leaked, f"segments still mapped after fit: {leaked}")
        for kind, bad in problems.items():
            if bad:
                # A fit that fails any check fails every epoch it attempted.
                checks.fail(kind, epochs)
                break
    end = time.monotonic()
    if tracer.enabled:
        tracer.spans[root] = ("train.workload", begin, end, -1, -1)

    ratings_per_s = median([rep["points"] / rep["engine_s"] for rep in reps])
    cpu_total = sum(rep["cpu_driver_s"] + rep["cpu_workers_s"] for rep in reps)
    points_total = sum(rep["points"] for rep in reps)
    epochs_total = sum(rep["epochs"] for rep in reps)
    task_s = [task.duration for rep in reps for task in rep["result"].trace.tasks]
    end_to_end = {
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "ratings_per_s": ratings_per_s,
        "test_rmse": median([rep["test_rmse"] for rep in reps]),
        "cpu_us_per_rating": 1e6 * cpu_total / points_total,
        "p50_ms": 1e3 * percentile(task_s, 50),
        "goodput": (checks.attempted - checks.failed) / checks.attempted,
        "slo_qps": median([rep["epochs"] / rep["engine_s"] for rep in reps]),
        "cpu_us_per_req": 1e6 * cpu_total / epochs_total,
        "staleness_ms": 1e3 * median([rep["teardown_s"] for rep in reps]),
        "ingest_ms": 1e3 * median([rep["launch_s"] for rep in reps]),
    }
    out = {"end_to_end": end_to_end, "checks": checks, "wall_s": end - begin, "primary": ("ratings_per_s", "higher")}
    if not tracer.enabled:
        return out

    alpha = reps[0]["alpha"]
    gather_s, kernel_rate = _kernel_probe(cfg, train, training, alpha, seed)
    model = reps[-1]["result"].model
    rmse_times = []
    for _ in range(20):
        start = time.perf_counter()
        rmse(model, test)
        rmse_times.append(time.perf_counter() - start)
    to_target = []
    for rep in reps:
        hits = [index + 1 for index, (_, _, value) in enumerate(rep["marks"]) if value <= spec.target_rmse]
        to_target.append(hits[0] if hits else epochs + 1)
    cpu_workers = sum(rep["cpu_workers_s"] for rep in reps)
    layers = {
        "costmodel.calibrate_s": median([rep["calibrate_s"] for rep in reps]),
        "costmodel.split_s": median([rep["split_s"] for rep in reps]),
        "core.alpha": alpha,
        "exec.launch_s": median([rep["launch_s"] for rep in reps]),
        "exec.epoch_ms.p50": 1e3 * median([value for rep in reps for value in rep["epoch_s"]]),
        "exec.worker_cpu_share": cpu_workers / cpu_total,
        "sgd.kernel_ratings_per_s": kernel_rate,
        "exec.overhead_share": 1.0 - ratings_per_s / (n_workers * kernel_rate),
        "sparse.gather_ms": 1e3 * gather_s,
        "sgd.rmse_eval_ms": 1e3 * median(rmse_times),
        "train.epochs_to_target": median(to_target),
        "exec.final_rmse_gap": median([rep["rmse_gap"] for rep in reps]),
        "p99_ms": 1e3 * percentile(task_s, 99),
    }
    layers.update(_exec_layers(reps, n_workers, train.nnz))
    out["per_layer"] = layers
    lanes = {"driver": [(tracer, root)]}
    for rep in reps:
        for worker, lane in rep["lanes"].items():
            lanes.setdefault(f"worker{worker}", []).append((lane, 0))
    out["lanes"] = lanes
    return out
