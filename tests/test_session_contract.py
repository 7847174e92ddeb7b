"""One session contract, checked on every built-in backend.

The simulator, the thread pool and the process pool share one epoch
ledger, so they must agree on what a run reports: why it stopped, which
epochs the callbacks saw, when it ended, and what a quiescent checkpoint
holds.  Every case runs one worker on a fixed seed, where the three
backends make identical scheduling decisions and kernel calls.
"""

import time

import numpy as np
import pytest

import repro.exec.threaded as threaded_module
from repro.config import HardwareConfig
from repro.core import GreedyBlockScheduler
from repro.core.partition import uniform_partition
from repro.exec import STOP, Callback, TrainCheckpoint, ThreadedEngine, get_backend
from repro.hardware import HeterogeneousPlatform
from repro.shm import live_segment_names

BACKENDS = ("simulate", "threads", "processes")

#: The session-state keys of a quiescent checkpoint, on every backend.
STATE_KEYS = {
    "iteration",
    "iteration_target",
    "points_completed",
    "now",
    "seq",
    "converged",
    "idle_workers",
    "pending_dispatch",
    "in_flight",
    "pending_reports",
}


class Recorder(Callback):
    """Keeps every delivered report; optionally stops after an epoch."""

    def __init__(self, stop_after=None):
        self.reports = []
        self.stop_after = stop_after

    def on_epoch_end(self, report, session):
        self.reports.append(report)
        if self.stop_after is not None and report.epoch >= self.stop_after:
            return STOP
        return None


@pytest.fixture(scope="module")
def one_worker_platform(scaled_preset):
    return HeterogeneousPlatform.from_preset(HardwareConfig(cpu_threads=1, gpu_count=0), scaled_preset)


@pytest.fixture
def make_engine(small_split, small_training, one_worker_platform):
    train, test = small_split

    def build(backend):
        scheduler = GreedyBlockScheduler(uniform_partition(train, 3, 3), 1, 0, seed=0)
        return get_backend(backend)(
            scheduler=scheduler,
            train=train,
            training=small_training,
            test=test,
            platform=one_worker_platform,
        )

    yield build
    assert live_segment_names() == ()


@pytest.fixture(scope="module")
def reference_curve(small_split, small_training, one_worker_platform):
    """Test RMSE per epoch of an uninterrupted 1-worker simulator run."""
    train, test = small_split
    scheduler = GreedyBlockScheduler(uniform_partition(train, 3, 3), 1, 0, seed=0)
    engine = get_backend("simulate")(
        scheduler=scheduler,
        train=train,
        training=small_training,
        test=test,
        platform=one_worker_platform,
    )
    return engine.run(iterations=4).trace


def _assert_reports_match_trace(reports, trace):
    delivered = [(r.epoch, r.engine_time, r.test_rmse, r.train_rmse, r.points_processed) for r in reports]
    recorded = [
        (i.iteration, i.simulated_time, i.test_rmse, i.train_rmse, i.points_processed) for i in trace.iterations
    ]
    assert delivered == recorded


def _assert_final_time_is_last_completion(trace):
    last = max((task.end_time for task in trace.tasks), default=0.0)
    assert trace.final_time == last


@pytest.mark.parametrize("backend", BACKENDS)
class TestSessionContract:
    def test_iterations(self, backend, make_engine):
        recorder = Recorder()
        result = make_engine(backend).run(iterations=3, callbacks=[recorder])
        assert result.stop_reason == "iterations"
        assert [r.epoch for r in recorder.reports] == [0, 1, 2]
        _assert_reports_match_trace(recorder.reports, result.trace)
        _assert_final_time_is_last_completion(result.trace)

    def test_target_rmse(self, backend, make_engine, reference_curve):
        # One worker is bitwise-identical across backends, so every
        # backend reaches the simulator's epoch-1 RMSE at epoch 1.
        target = reference_curve.iterations[1].test_rmse
        recorder = Recorder()
        result = make_engine(backend).run(target_rmse=target, callbacks=[recorder])
        assert result.stop_reason == "target_rmse"
        assert result.converged
        assert [r.epoch for r in recorder.reports] == [0, 1]
        assert recorder.reports[-1].converged
        assert result.trace.target_reached_at == recorder.reports[-1].engine_time
        _assert_reports_match_trace(recorder.reports, result.trace)

    def test_time_budget(self, backend, make_engine, reference_curve):
        if backend == "simulate":
            # Half of the first epoch: some tasks finish, one is aborted.
            budget = reference_curve.iterations[0].simulated_time / 2
        else:
            budget = 1e-9  # wall clock: over before the first dispatch
        recorder = Recorder()
        result = make_engine(backend).run(iterations=4, max_simulated_time=budget, callbacks=[recorder])
        assert result.stop_reason == "time_budget"
        _assert_reports_match_trace(recorder.reports, result.trace)
        _assert_final_time_is_last_completion(result.trace)
        if backend == "simulate":
            assert result.trace.tasks
            assert result.trace.final_time <= budget

    def test_callback_stop(self, backend, make_engine):
        recorder = Recorder(stop_after=1)
        result = make_engine(backend).run(iterations=4, callbacks=[recorder])
        assert result.stop_reason == "callback"
        assert [r.epoch for r in recorder.reports][:2] == [0, 1]
        _assert_reports_match_trace(recorder.reports, result.trace)

    def test_finish_before_step_is_aborted(self, backend, make_engine):
        session = make_engine(backend).start(iterations=3)
        result = session.finish()
        assert result.stop_reason == "aborted"
        assert result.trace.iterations == []
        assert result.trace.final_time == 0.0
        assert session.step() is None

    def test_quiescent_state_keys_and_round_trip(self, backend, make_engine):
        session = make_engine(backend).start(iterations=4, pause_on_epoch=True)
        assert session.step().epoch == 0
        checkpoint = TrainCheckpoint.capture(session)
        session.stop()
        session.finish()
        assert set(checkpoint.session_state) == STATE_KEYS

        resumed = make_engine(backend).start(iterations=4, pause_on_epoch=True)
        checkpoint.restore(resumed)
        assert resumed.state_dict() == checkpoint.session_state
        assert resumed.epoch == 1
        result = resumed.finish()
        assert result.stop_reason == "aborted"


class TestThreadsFinalReport:
    """The boundary owner advances the epoch before it evaluates RMSE
    outside the lock; a controller ``step()`` in that window must still
    wait for the boundary's report, including the final epoch's."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_slow_rmse_keeps_final_report(self, monkeypatch, small_split, small_training, n_workers):
        real_rmse = threaded_module.rmse

        def slow_rmse(model, ratings):
            time.sleep(0.2)
            return real_rmse(model, ratings)

        monkeypatch.setattr(threaded_module, "rmse", slow_rmse)
        train, test = small_split
        engine = ThreadedEngine(
            scheduler=GreedyBlockScheduler(uniform_partition(train, 3, 3), n_workers, 0, seed=0),
            train=train,
            training=small_training,
            test=test,
        )
        recorder = Recorder()
        result = engine.run(iterations=2, callbacks=[recorder])
        assert [r.epoch for r in recorder.reports] == [0, 1]
        _assert_reports_match_trace(recorder.reports, result.trace)
        assert result.stop_reason == "iterations"
        assert np.isfinite(result.final_test_rmse)
