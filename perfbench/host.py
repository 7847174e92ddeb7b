"""The server process of the ``serve-*`` workloads.

:func:`host_main` runs in its own (spawned) process.  It builds the
served model from the seed, then sets the service up ``setups`` times
(``serve-hot``: ANN index build and publish; ``serve-live``: base train
and publish; then server start until the readers are ready), tearing
all but the last down again so set-up time is a median.  The last
server stays up for the load driver.  For ``serve-live`` the same
process also hosts an :class:`repro.stream.IngestSession` that replays
a rating stream on a fixed schedule into the store the server watches.

Protocol over the pipe (driver -> host / host -> driver)::

    host: ("setup", index, port, t_begin, t_published, t_ready)
    driver: ("next",)                   tear this set-up down, make another
    driver: ("stream", t0)              serve-live: start the stream at t0
    host: ("stream_started", tid)       the ingest thread's kernel thread id
    driver: ("handle",)  host: ModelHandle of the current version
    driver: ("publish",) serve-hot: publish the model again;
                         host: (version, t_called, t_returned)
    driver: ("stop",)    host: ("report", dict), then exits
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict, List

import numpy as np

from repro.config import HardwareConfig
from repro.core import HeterogeneousTrainer
from repro.datasets import get_dataset
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_matrix
from repro.serve import ModelStore, Scorer
from repro.serve.ann import IvfIndex
from repro.service import RecommendServer, ServiceConfig
from repro.sgd import FactorModel, rmse
from repro.shm import live_segment_names
from repro.sparse import SparseRatingMatrix
from repro.stream import DriftPolicy, IngestSession


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def hot_inputs(cfg: dict, seed: int):
    """The served model: the ground-truth factors of a Netflix-shaped
    rating generator, plus held-out ratings drawn from it."""
    synthetic = SyntheticConfig(
        n_rows=cfg["users"],
        n_cols=cfg["items"],
        n_ratings=cfg["heldout_ratings"],
        rank=cfg["latent"],
        rating_min=1.0,
        rating_max=5.0,
        noise_std=0.5,
        popularity_exponent=0.8,
        seed=seed,
    )
    heldout, true_p, true_q = generate_synthetic_matrix(synthetic)
    return FactorModel(np.ascontiguousarray(true_p), true_q), heldout


def live_inputs(cfg: dict, seed: int, stream_seconds: float):
    """Base matrix, stream batches and held-out ratings for ``serve-live``.

    Users ``>= base_users`` of the generated matrix are newcomers.  The
    stream mixes newcomer ratings (``newcomer_share`` of it) with held-back
    ratings of base users, shuffled; newcomers are renumbered in order of
    first appearance so the live matrix grows one row at a time.
    """
    synthetic = SyntheticConfig(
        n_rows=cfg["users"],
        n_cols=cfg["items"],
        n_ratings=cfg["ratings"],
        rank=8,
        rating_min=1.0,
        rating_max=5.0,
        noise_std=0.5,
        popularity_exponent=0.8,
        seed=seed,
    )
    matrix, _, _ = generate_synthetic_matrix(synthetic)
    rng = np.random.default_rng(seed)
    users, items, vals = matrix.rows, matrix.cols, matrix.vals
    base_users = cfg["base_users"]
    length = int(cfg["stream_rate"] * stream_seconds)
    n_new = int(round(cfg["newcomer_share"] * length))
    old = np.flatnonzero(users < base_users)
    new = np.flatnonzero(users >= base_users)
    old = rng.permutation(old)
    heldout_count = int(cfg["heldout_share"] * len(old))
    heldout = old[:heldout_count]
    stream_old = old[heldout_count : heldout_count + length - n_new]
    base = old[heldout_count + length - n_new :]
    # Each newcomer arrives with exactly ``newcomer_ratings`` ratings, so
    # every seed folds in the same number of users.
    per_user = cfg["newcomer_ratings"]
    by_user: Dict[int, List[int]] = {}
    for index in new:
        by_user.setdefault(int(users[index]), []).append(int(index))
    eligible = [user for user in sorted(by_user) if len(by_user[user]) >= per_user]
    chosen = rng.permutation(eligible)[: n_new // per_user]
    stream_new = [index for user in chosen for index in by_user[user][:per_user]]
    stream = rng.permutation(np.concatenate([stream_old, np.asarray(stream_new, dtype=np.int64)]))
    s_users = users[stream].copy()
    order = {}
    for user in s_users:
        if user >= base_users and user not in order:
            order[user] = base_users + len(order)
    s_users = np.array([order.get(user, user) for user in s_users], dtype=np.int64)
    n_items = cfg["items"]
    base_matrix = SparseRatingMatrix(users[base], items[base], vals[base], shape=(base_users, n_items))
    heldout_matrix = SparseRatingMatrix(users[heldout], items[heldout], vals[heldout], shape=(base_users, n_items))
    s_items, s_vals = items[stream], vals[stream]
    batch = cfg["stream_batch"]
    batches = [
        (s_users[start : start + batch], s_items[start : start + batch], s_vals[start : start + batch])
        for start in range(0, len(stream), batch)
    ]
    return base_matrix, batches, heldout_matrix


# --------------------------------------------------------------------------- #
# The host
# --------------------------------------------------------------------------- #
class _Host:
    def __init__(self, conn, cfg: dict, seed: int, stream_seconds: float) -> None:
        self.conn = conn
        self.cfg = cfg
        self.seed = seed
        self.live = cfg["name"] == "serve-live"
        self.stream_seconds = stream_seconds
        self.report: Dict[str, object] = {"setup": [], "publish_s": [], "ann_build_s": []}
        self.store = None
        self.server = None
        self.session = None
        self.ingest_thread = None
        self.ingest_error = None

    # -- set-up ------------------------------------------------------------ #
    def prepare(self) -> None:
        cfg = self.cfg
        if self.live:
            self.base, self.batches, self.heldout = live_inputs(cfg, self.seed, self.stream_seconds)
            spec = get_dataset("movielens")
            self.training = spec.recommended_training(
                iterations=cfg["base_epochs"], latent_factors=cfg["latent"], seed=self.seed
            )
            self.check_users = np.random.default_rng(self.seed + 1).choice(
                cfg["base_users"], cfg["check_users"], replace=False
            )
        else:
            self.model, self.heldout = hot_inputs(cfg, self.seed)

    async def setup_once(self) -> None:
        cfg = self.cfg
        begin = time.monotonic()
        self.store = ModelStore()
        if self.live:
            trainer = HeterogeneousTrainer(
                "cpu_only", hardware=HardwareConfig(cpu_threads=1, gpu_count=0), training=self.training, seed=self.seed
            )
            self.session = IngestSession(
                trainer,
                self.base.select(np.arange(self.base.nnz)),
                store=self.store,
                window_size=cfg["window"],
                policy=DriftPolicy(rmse_increase=float("inf"), min_coverage=0.0),
                backend="simulate",
                train_iterations=cfg["base_epochs"],
                retrain_iterations=cfg["retrain_epochs"],
            )
            self.session.start()
            published = time.monotonic()
        else:
            # Publishing an ANN-tier version means building its index first.
            self.index = IvfIndex.build(self.model, nlist=cfg["nlist"], seed=self.seed)
            start = time.monotonic()
            self.report["ann_build_s"].append(start - begin)
            self.store.publish(self.model, index=self.index)
            published = time.monotonic()
            self.report["publish_s"].append(published - start)
        config = ServiceConfig(
            workers=cfg["readers"], k=cfg["k"], ann=cfg["ann"], nprobe=cfg.get("nprobe", 8), deadline=cfg["deadline_s"]
        )
        self.server = RecommendServer(self.store, config)
        await self.server.start()
        ready = time.monotonic()
        self.report["setup"].append((begin, published, ready))
        self.conn.send(("setup", len(self.report["setup"]) - 1, self.server.port, begin, published, ready))

    async def teardown(self) -> None:
        if self.ingest_thread is not None:
            await asyncio.get_running_loop().run_in_executor(None, self.ingest_thread.join)
            self.ingest_thread = None
        if self.server is not None:
            await self.server.stop()
            self.server = None
        if self.store is not None:
            self.store.close()
            self.store = None

    # -- the stream (serve-live) --------------------------------------------- #
    def _references(self, version: int, refs: dict) -> float:
        """Top-k of the check users on exactly this published version;
        returns the thread CPU it took, which is the benchmark's, not the
        ingest path's."""
        cpu = time.thread_time()
        with self.store.acquire(version) as lease:
            items, _ = Scorer(lease.model).top_k(self.check_users, self.cfg["k"])
        refs[version] = items
        return time.thread_time() - cpu

    def _stream(self, t0: float) -> None:
        cfg = self.cfg
        session = self.session
        calls = []
        refs: Dict[int, np.ndarray] = {}
        retrain = {}
        cpu0 = time.thread_time()
        check_cpu = 0.0
        try:
            check_cpu += self._references(self.store.current_version, refs)
            interval = cfg["stream_batch"] / cfg["stream_rate"]
            retrain_at = int(cfg["retrain_offset"] * len(self.batches))
            for number, (users, items, vals) in enumerate(self.batches):
                due = t0 + number * interval
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                called = time.monotonic()
                report = session.ingest(users, items, vals)
                returned = time.monotonic()
                calls.append((due, called, returned, report.published_version, len(vals)))
                if report.published_version is not None:
                    check_cpu += self._references(report.published_version, refs)
                if number == retrain_at:
                    start = time.monotonic()
                    session.retrain()
                    retrain = {"start": start, "end": time.monotonic()}
        except Exception as error:  # reported to the driver, which fails the run
            self.ingest_error = repr(error)
        stats = session.stats
        self.report.update(
            ingest_calls=calls,
            references=refs,
            check_users=self.check_users,
            retrain=retrain,
            ingest_cpu_s=time.thread_time() - cpu0 - check_cpu,
            stream_stats={
                "ingested": stats.ingested,
                "publishes": stats.publishes,
                "folded_users": stats.folded_users,
                "folded_items": stats.folded_items,
                "retrains": stats.retrains,
                "publish_failures": stats.publish_failures,
            },
            test_rmse=rmse(session.model, self.heldout),
        )

    # -- main loop ----------------------------------------------------------- #
    async def serve(self) -> None:
        loop = asyncio.get_running_loop()
        self.prepare()
        for index in range(self.cfg["setups"]):
            await self.setup_once()
            if index < self.cfg["setups"] - 1:
                await loop.run_in_executor(None, self.conn.recv)
                await self.teardown()
        if not self.live:
            self.report["test_rmse"] = rmse(self.model, self.heldout)
        while True:
            message = await loop.run_in_executor(None, self.conn.recv)
            if message[0] == "stream":
                self.ingest_thread = threading.Thread(target=self._stream, args=(message[1],), name="ingest")
                self.ingest_thread.start()
                self.conn.send(("stream_started", self.ingest_thread.native_id))
            elif message[0] == "handle":
                self.conn.send(self.store.current_handle())
            elif message[0] == "publish":
                start = time.monotonic()
                handle = self.store.publish(self.model, index=self.index)
                self.conn.send((handle.version, start, time.monotonic()))
            elif message[0] == "stop":
                break
        await self.teardown()
        self.report["ingest_error"] = self.ingest_error
        self.report["leaked_mappings"] = list(live_segment_names())


def host_main(conn, cfg: dict, seed: int, stream_seconds: float) -> None:
    host = _Host(conn, cfg, seed, stream_seconds)
    try:
        asyncio.run(host.serve())
        conn.send(("report", host.report))
    finally:
        conn.close()
