"""The epoch ledger: one copy of the bookkeeping every engine session shares.

The paper's online phase (Algorithm 2) is one epoch loop, judged by its
per-iteration RMSE-vs-time trajectory (Figure 12, Table III).  The three
engines differ only in *how* tasks run — a simulated event heap, a
thread pool, a process pool — not in how epochs are counted.
:class:`EpochLedger` owns that counting, so the engines keep only
dispatch, completion and their own concurrency:

* the stopping conditions (:func:`resolve_stopping_conditions`) and the
  stop reason, where the first reason recorded wins;
* the counters: epoch, next epoch target, ratings completed, the stamp
  of the last completed task, convergence;
* task booking (:meth:`EpochLedger.complete_task`);
* the two-phase epoch boundary: :meth:`~EpochLedger.advance` moves the
  counters on and resets the scheduler's quotas, the engine evaluates
  RMSE, then :meth:`~EpochLedger.close` writes the iteration record,
  applies the target/cap checks and queues the :class:`EpochReport`;
* the pause predicate (:meth:`~EpochLedger.should_pause`);
* the checkpoint counter keys (:meth:`~EpochLedger.state_dict`), which
  the process backend's crash-recovery snapshot reuses;
* the result (:meth:`~EpochLedger.result`).

The ledger holds no lock: the threaded backend calls it under its
condition variable, the other engines from their single controller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Union

from ..exceptions import CheckpointError
from ..sim.trace import ExecutionTrace, IterationRecord, TaskRecord
from .session import STOP_ITERATIONS, STOP_TARGET_RMSE, STOP_TIME_BUDGET, EpochReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tasks import Task

#: Iteration cap applied when a run is bounded only by ``target_rmse``
#: (or a time budget): far past any convergent training, it bounds the
#: damage of a diverging run that can never reach its target.
MAX_UNBOUNDED_ITERATIONS = 10_000

#: ``stop_reason`` of a session finished before any stopping condition fired.
STOP_ABORTED = "aborted"


def resolve_stopping_conditions(
    iterations: Optional[int],
    target_rmse: Optional[float],
    max_simulated_time: Optional[float],
    default_iterations: int,
    has_test: bool,
    error: type,
) -> int:
    """Validate a run's stopping conditions and return its epoch cap.

    Target-RMSE stopping needs a test set to evaluate; with no stopping
    condition at all the run gets ``default_iterations``; a run bounded
    only by a target or a time budget is capped at
    :data:`MAX_UNBOUNDED_ITERATIONS`.  Raises ``error`` on an invalid
    combination.
    """
    if target_rmse is not None and not has_test:
        raise error("target_rmse stopping requires a test set")
    if iterations is None and target_rmse is None and max_simulated_time is None:
        iterations = default_iterations
    return iterations if iterations is not None else MAX_UNBOUNDED_ITERATIONS


class Boundary(NamedTuple):
    """An epoch boundary between :meth:`EpochLedger.advance` and ``close``."""

    epoch: int
    points: int
    stamp: float


class EpochLedger:
    """Epoch bookkeeping of one training run, shared by every backend.

    ``engine`` supplies the scheduler, the training config's default
    epoch count and whether a test set exists; ``error`` is the
    backend's exception type for invalid stopping conditions.
    """

    def __init__(
        self,
        engine,
        iterations: Optional[int],
        target_rmse: Optional[float],
        max_simulated_time: Optional[float],
        error: type,
        pause_on_epoch: Union[bool, Callable[[int], bool]] = False,
    ) -> None:
        self.max_iterations = resolve_stopping_conditions(
            iterations,
            target_rmse,
            max_simulated_time,
            default_iterations=engine.training.iterations,
            has_test=engine.test is not None,
            error=error,
        )
        self._scheduler = engine.scheduler
        self.total_points = engine.scheduler.total_points
        if self.total_points <= 0:
            raise error("the scheduler's grid contains no ratings")
        self.target_rmse = target_rmse
        self.max_time = max_simulated_time
        self.pause_on_epoch = pause_on_epoch

        self.trace = ExecutionTrace(target_rmse=target_rmse)
        self.iteration = 0
        self.iteration_target = self.total_points
        self.points_completed = 0
        #: Engine time of the last completed task: the boundary stamp,
        #: the result's ``final_time`` and the clock a resumed run
        #: continues from.
        self.last_completion = 0.0
        self.converged = False
        self.stop_reason: Optional[str] = None
        #: Reports produced but not yet delivered by ``step()``.
        self.reports: List[EpochReport] = []

    # ------------------------------------------------------------------ #
    # Stopping
    # ------------------------------------------------------------------ #
    @property
    def stopping(self) -> bool:
        """Whether a stop reason has been recorded."""
        return self.stop_reason is not None

    def stop(self, reason: str) -> None:
        """Record ``reason`` unless an earlier one was recorded first."""
        if self.stop_reason is None:
            self.stop_reason = reason

    def over_budget(self, now: float) -> bool:
        """Stop with ``"time_budget"`` once engine time ``now`` is past it."""
        if self.max_time is not None and now > self.max_time:
            self.stop(STOP_TIME_BUDGET)
            return True
        return False

    def at_cap(self) -> bool:
        """Stop with ``"iterations"`` if the epoch cap is already reached.

        Only a restored session can start at its cap (a checkpoint taken
        at or past this run's epoch cap); a live run stops at the
        boundary that reaches it, in :meth:`close`.
        """
        if self.iteration >= self.max_iterations:
            self.stop(STOP_ITERATIONS)
            return True
        return False

    def should_pause(self, epoch: int) -> bool:
        """Whether the boundary of 0-based ``epoch`` must quiesce the run."""
        if callable(self.pause_on_epoch):
            return bool(self.pause_on_epoch(epoch))
        return bool(self.pause_on_epoch)

    # ------------------------------------------------------------------ #
    # Booking and boundaries
    # ------------------------------------------------------------------ #
    def complete_task(self, task: "Task", worker_index: int, start: float, end: float) -> None:
        """Book one completed task: release it and record it in the trace."""
        self._scheduler.complete_task(task)
        self.points_completed += task.nnz
        self.last_completion = max(self.last_completion, end)
        self.trace.record_task(
            TaskRecord(
                worker_index=worker_index,
                is_gpu=self._scheduler.is_gpu_worker(worker_index),
                start_time=start,
                end_time=end,
                points=task.nnz,
                n_blocks=len(task.blocks),
                stolen=task.stolen,
                iteration=self.iteration,
            )
        )

    def advance(self) -> Optional[Boundary]:
        """Phase one of a boundary: move the counters on, reset quotas.

        Returns the boundary to :meth:`close` once RMSE is evaluated, or
        ``None`` when no boundary is due (or the run is stopping).
        Epochs complete when the cumulative processed ratings reach the
        next multiple of the grid's total; a huge task on a tiny grid
        can cross several, so callers loop until ``None``.
        """
        if self.stopping or self.points_completed < self.iteration_target:
            return None
        boundary = Boundary(self.iteration, self.points_completed, self.last_completion)
        self.iteration += 1
        self.iteration_target += self.total_points
        self._scheduler.start_iteration()
        return boundary

    def close(
        self,
        boundary: Boundary,
        test_rmse: Optional[float],
        train_rmse: Optional[float],
    ) -> None:
        """Phase two: record the epoch, check target and cap, queue the report."""
        self.trace.record_iteration(
            IterationRecord(
                iteration=boundary.epoch,
                simulated_time=boundary.stamp,
                train_rmse=train_rmse,
                test_rmse=test_rmse,
                points_processed=boundary.points,
            )
        )
        if self.target_rmse is not None and test_rmse is not None and test_rmse <= self.target_rmse:
            self.converged = True
            self.trace.target_reached_at = boundary.stamp
            self.stop(STOP_TARGET_RMSE)
        if boundary.epoch + 1 >= self.max_iterations:
            self.stop(STOP_ITERATIONS)
        self.reports.append(
            EpochReport(
                epoch=boundary.epoch,
                engine_time=boundary.stamp,
                train_rmse=train_rmse,
                test_rmse=test_rmse,
                points_processed=boundary.points,
                converged=self.converged,
            )
        )

    # ------------------------------------------------------------------ #
    # Checkpoint state
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """The session state of a quiescent run at an epoch boundary.

        The simulator overrides the four keys that describe simulated
        in-flight work (``seq``, ``idle_workers``, ``pending_dispatch``,
        ``in_flight``); every other backend is quiescent when it
        checkpoints, so the defaults here are its whole state.
        """
        return {
            "iteration": self.iteration,
            "iteration_target": self.iteration_target,
            "points_completed": self.points_completed,
            "now": self.last_completion,
            "seq": len(self.trace.tasks),
            "converged": self.converged,
            "idle_workers": [],
            "pending_dispatch": None,
            "in_flight": [],
            "pending_reports": [report.to_state() for report in self.reports],
        }

    def load_state_dict(self, state: dict, in_flight_ok: bool = False) -> None:
        """Restore :meth:`state_dict` output into a not-yet-started run.

        Only the simulator can resume simulated in-flight tasks
        (``in_flight_ok``); the wall-clock backends refuse them.
        """
        if state["in_flight"] and not in_flight_ok:
            raise CheckpointError(
                "this checkpoint carries simulated in-flight tasks (it was "
                "captured from a multi-worker simulator run); resume it on "
                'the "simulate" backend'
            )
        self._load_counters(state)
        self.last_completion = float(state["now"])
        self.reports = [EpochReport.from_state(report) for report in state["pending_reports"]]

    def _load_counters(self, state: dict) -> None:
        self.iteration = int(state["iteration"])
        self.iteration_target = int(state["iteration_target"])
        self.points_completed = int(state["points_completed"])
        self.converged = bool(state["converged"])

    def snapshot(self) -> dict:
        """:meth:`state_dict` plus the trace's epoch count, for :meth:`rollback`."""
        return dict(self.state_dict(), n_iterations=len(self.trace.iterations))

    def rollback(self, snapshot: dict) -> None:
        """Return the counters and the trace to a :meth:`snapshot`.

        Undelivered reports describe boundaries at or before the
        snapshot and stay queued; ``last_completion`` is engine time and
        keeps advancing through a rollback.
        """
        self._load_counters(snapshot)
        del self.trace.tasks[snapshot["seq"] :]
        del self.trace.iterations[snapshot["n_iterations"] :]

    # ------------------------------------------------------------------ #
    # Result
    # ------------------------------------------------------------------ #
    def abandon(self) -> None:
        """Record why a finishing run ends if nothing stopped it yet."""
        self.stop(STOP_ITERATIONS if self.iteration >= self.max_iterations else STOP_ABORTED)

    def result(self, result_cls, model, **extra):
        """Build the run's result; ``final_time`` is the last completion."""
        self.abandon()
        self.trace.final_time = self.last_completion
        return result_cls(
            model=model,
            trace=self.trace,
            converged=self.converged,
            stop_reason=self.stop_reason,
            **extra,
        )
