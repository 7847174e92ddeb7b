"""The engine protocol shared by every execution backend.

An *engine* takes a scheduler's decisions and turns them into actual SGD
updates on the shared factor matrices.  The library ships two engines:

* :class:`repro.sim.SimulationEngine` — the discrete-event simulator that
  advances a virtual clock with cost-model task durations (the backend
  behind every paper figure, usable without real parallel hardware);
* :class:`repro.exec.ThreadedEngine` — genuinely concurrent CPU worker
  threads driving the same scheduler over the same shared numpy factor
  matrices.

Both implement :class:`Engine` and produce an
:class:`~repro.sim.trace.ExecutionTrace`, so everything downstream of a
run — RMSE curves, worker statistics, workload shares, steal counts — is
backend-agnostic.  Which backend a run uses is selected with the
``backend`` option of :class:`~repro.config.TrainingConfig` /
:meth:`~repro.core.trainer.HeterogeneousTrainer.fit`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

from ..config import BACKENDS  # noqa: F401  (re-exported; validated there)
from .session import EngineSession, run_session

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.sim
    from ..sgd import FactorModel
    from ..sim.trace import ExecutionTrace


@dataclass
class EngineResult:
    """Outcome of one training run, regardless of the backend.

    This is the single implementation of the run-outcome surface
    (:attr:`engine_time`, :attr:`final_test_rmse`, :meth:`rmse_curve`,
    :meth:`time_to_rmse`); the high-level
    :class:`~repro.core.trainer.TrainResult` subclasses it rather than
    duplicating the accessors.
    """

    model: "FactorModel"
    trace: "ExecutionTrace"
    converged: bool
    """Whether the requested RMSE target (if any) was reached."""

    stop_reason: str = "iterations"
    """Why the run ended: ``"iterations"``, ``"target_rmse"``,
    ``"time_budget"``, a callback-supplied reason (``"callback"``,
    ``"early_stopping"``, ``"wall_time_budget"``), or ``"aborted"`` for a
    session finished before any stopping condition fired."""

    worker_restarts: int = 0
    """Worker processes respawned after crashes during the run (always 0
    for the simulate and threads backends)."""

    @property
    def engine_time(self) -> float:
        """Total engine seconds of the run.

        Simulated seconds for the discrete-event backend, wall-clock
        seconds for the threaded backend; either way the time base of the
        trace's task and iteration records.
        """
        return self.trace.final_time

    @property
    def final_test_rmse(self) -> Optional[float]:
        """Test RMSE after the last completed iteration."""
        if not self.trace.iterations:
            return None
        return self.trace.iterations[-1].test_rmse

    def rmse_curve(self) -> List[Tuple[float, float]]:
        """``(time, test_rmse)`` pairs, one per iteration."""
        return self.trace.rmse_curve()

    def time_to_rmse(self, target: float) -> Optional[float]:
        """Earliest engine time at which the test RMSE reached ``target``."""
        return self.trace.time_to_rmse(target)


@dataclass
class WallClockResult(EngineResult):
    """Outcome of a run whose time base is real wall-clock seconds.

    The shared result surface of the real-execution backends (threads,
    processes): ``trace.final_time`` is wall-clock seconds from the
    start of the run to the last task completion, which makes a
    throughput accessor meaningful.
    """

    @property
    def wall_time(self) -> float:
        """Wall-clock seconds of the run (alias of :attr:`engine_time`)."""
        return self.trace.final_time

    @property
    def throughput(self) -> float:
        """Ratings processed per wall-clock second."""
        if self.trace.final_time <= 0:
            return 0.0
        return self.trace.total_points() / self.trace.final_time


def apply_task_updates(model, store, task, rate, training):
    """Apply one task's SGD updates to the shared factor matrices.

    The single kernel-invocation point of the in-process engines: the
    simulator and the thread pool must issue byte-identical kernel calls
    or the 1-worker sim-parity guarantee breaks.  The task's ratings come
    from the :class:`~repro.sparse.BlockStore` as pre-gathered,
    pre-validated, band-local contiguous arrays.
    """
    apply_block_data(model.p, model.q, store.task_data(task), rate, training)


def apply_block_data(p, q, data, rate, training):
    """Apply one pre-gathered block record's SGD updates to ``p``/``q``.

    The store-fed half of :func:`apply_task_updates`, factored out so the
    process backend's workers — which hold shared-memory factor arrays
    and :class:`~repro.sparse.SharedBlockStore` records rather than a
    model and a task — issue byte-identical kernel calls to the in-process
    engines.  ``training.kernel`` selects the kernel.
    """
    from ..sgd.kernels import sgd_block_minibatch_local, sgd_block_sequential

    if data.nnz == 0:
        return
    if training.kernel == "sequential":
        sgd_block_sequential(
            p, q, data.rows, data.cols, data.vals,
            rate, training.reg_p, training.reg_q, validate=False,
        )
    else:
        sgd_block_minibatch_local(
            p, q, data.local_rows, data.local_cols, data.vals,
            rate, training.reg_p, training.reg_q,
            data.row_range, data.col_range,
            batch_size=training.effective_batch_size, validate=False,
        )


class Engine(ABC):
    """Common interface of the execution backends.

    Engines are single-use: construct one per run with the scheduler,
    data and hyper-parameters, then either call :meth:`run` once or
    drive the run epoch by epoch through :meth:`start` (the stepwise
    session protocol of :mod:`repro.exec.session`).  Concrete engines
    expose at least ``scheduler`` and ``model`` attributes so callers
    can inspect the grid state and the trained factors, plus a
    ``backend_name`` matching their registry name.
    """

    #: Registry name of the backend (see :mod:`repro.exec.registry`).
    backend_name: str = ""

    @abstractmethod
    def start(
        self,
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        pause_on_epoch: Union[bool, Callable[[int], bool]] = False,
    ) -> EngineSession:
        """Begin a stepwise run and return its session.

        Parameters
        ----------
        iterations:
            Stop after this many full passes over the training ratings
            (defaults to ``training.iterations`` when neither a target
            RMSE nor a time budget is given).  Runs bounded only by a
            target RMSE or a time budget are additionally capped at
            :data:`~repro.exec.ledger.MAX_UNBOUNDED_ITERATIONS` epochs.  When resuming from
            a checkpoint this is the *total* epoch cap, checkpointed
            epochs included.
        target_rmse:
            Stop as soon as the test RMSE at an iteration boundary is at
            or below this value (requires a test set).
        max_simulated_time:
            Hard cap on engine seconds (simulated seconds for the
            simulator, wall-clock seconds for the threaded backend).
        pause_on_epoch:
            Ask for a fully quiescent pause at epoch boundaries: ``True``
            pauses every boundary, a ``(epoch) -> bool`` predicate only
            the selected ones.  The simulator pauses inherently; the
            threaded backend drains in-flight tasks at the selected
            boundaries — required for checkpointing, unnecessary for
            mere observation.
        """

    def run(
        self,
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        callbacks=None,
    ) -> EngineResult:
        """Train until a stopping condition is met.

        A thin loop over the session protocol: ``start()``, ``step()``
        until exhausted (invoking ``callbacks`` at each epoch boundary),
        ``finish()``.  See :meth:`start` for the stopping parameters and
        :mod:`repro.exec.callbacks` for the callback API.
        """
        from .callbacks import CallbackList

        callback_list = CallbackList(callbacks)
        session = self.start(
            iterations=iterations,
            target_rmse=target_rmse,
            max_simulated_time=max_simulated_time,
            # Pause only at the boundaries some callback will actually
            # capture (e.g. Checkpoint(every_n=10) drains one in ten).
            pause_on_epoch=(
                callback_list.pause_at if callback_list.requires_pause else False
            ),
        )
        return run_session(session, callback_list)
