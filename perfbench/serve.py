"""The ``serve-hot`` and ``serve-live`` workloads (driver side).

The server runs in its own process (:mod:`host`); this process is the
load driver.  It walks an open-loop ladder of fixed request rates,
samples the CPU of the server process, its reader processes and itself
from ``/proc`` around every rung, reads ``/stats`` after every rung and
checks every answer.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import numpy as np

from common import Checks, Tracer, child_pids, median, percentile, proc_cpu_s
from host import host_main
from loadgen import NO_ANSWER, TRANSPORT_ERROR, drive, fetch, first_response_with, fixed_rate_schedule

from repro.serve import ModelStore, RecommendationService, Scorer, attach_model
from repro.serve.ann import AnnScorer
from repro.serve.bench import recall_at_k
from repro.sgd import solve_fold_in

RUNG_GAP_S = 0.25
#: Slices of each non-nominal rung judged separately for the SLO (each
#: nominal segment is one slice).
RUNG_WINDOWS = 2
HOST_TIMEOUT_S = 120.0


def _recv(conn, timeout: float = HOST_TIMEOUT_S):
    if not conn.poll(timeout):
        raise TimeoutError("the server process did not answer")
    return conn.recv()


def _reader_pids(host_pid: int):
    """The server's reader processes: forked children sharing its cmdline
    (which leaves out multiprocessing's resource tracker)."""

    def cmdline(pid):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                return handle.read()
        except OSError:
            return None

    own = cmdline(host_pid)
    return [pid for pid in child_pids(host_pid) if cmdline(pid) == own]


def _kill_and_wait(pid: int, timeout: float = 10.0) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                if handle.read().split(b") ")[-1][:1] == b"Z":
                    return  # dead; only its exit status is left for the reaper
        except OSError:
            return
        time.sleep(0.01)


def _user_sampler(cfg: dict, rng: np.random.Generator):
    n = cfg["request_users"]
    if cfg["popularity"] == "uniform":
        return lambda size: rng.integers(0, n, size=size)
    # User u has popularity rank u + 1 on every seed; the seed draws the
    # request sequence.
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-cfg["zipf_exponent"])
    weights /= weights.sum()
    return lambda size: rng.choice(n, size=size, p=weights)


def _segments(cfg: dict, seconds: float) -> list:
    """The ladder as ``(rate, seconds)`` segments.

    The nominal rung's share of the time is split into
    ``nominal_segments`` pieces with the other rungs (lowest first, from
    the start of the run) spread evenly between them, so the nominal
    measurements cover the whole run and a passing disturbance of the
    machine spoils only the few pieces it overlaps; the nominal p50 and
    CPU per request are medians over the pieces.
    """
    others = [rate for rate in cfg["ladder"] if rate != cfg["nominal"]]
    pieces = cfg["nominal_segments"]
    nominal_s = seconds * cfg["nominal_share"] / pieces
    other_s = seconds * (1.0 - cfg["nominal_share"]) / len(others)
    order = [(cfg["nominal"], nominal_s)] * pieces
    for index, rate in enumerate(others):
        order.insert(round(index * pieces / len(others)) + index, (rate, other_s))
    return order


def _cpu(host_pid, readers, ingest_tid):
    ingest = proc_cpu_s(host_pid, tid=ingest_tid) if ingest_tid else 0.0
    return {
        "loop": proc_cpu_s(host_pid) - ingest,
        "readers": [proc_cpu_s(pid) for pid in readers],
        "self": proc_cpu_s(os.getpid()),
    }


def _rung_summary(rate, seconds, outcome, cpu0, cpu1, limit_s, windows):
    """One segment's numbers; a wrong slate counts as a miss like a failure.

    ``window_goodput`` splits the segment into ``windows`` consecutive
    slices of requests and gives each slice's goodput.
    """
    sent = len(outcome.due)
    answered = ~np.isnan(outcome.done)
    ok = (outcome.status == 200) & answered
    good = ok & (outcome.latency <= limit_s) & ~outcome.bad
    backlog = bool(outcome.waiting_at_last_due > max(4, 0.01 * sent))
    loop = cpu1["loop"] - cpu0["loop"]
    readers = [b - a for a, b in zip(cpu0["readers"], cpu1["readers"])]
    return {
        "rate": rate,
        "seconds": seconds,
        "sent": sent,
        "ok": int(ok.sum()),
        "good": int(good.sum()),
        "goodput": int(good.sum()) / sent,
        "latency_ms": 1e3 * outcome.latency[answered],
        "late_ms": outcome.wake - outcome.due,
        "backlog": backlog,
        "window_goodput": [float(chunk.mean()) for chunk in np.array_split(good, windows)],
        "loop_cpu_s": loop,
        "reader_cpu_s": readers,
        "loadgen_cpu_s": cpu1["self"] - cpu0["self"],
        "outcome": outcome,
    }


def _status_counts(outcomes):
    status = np.concatenate([outcome.status for outcome in outcomes])
    return {
        "503": int((status == 503).sum()),
        "504": int((status == 504).sum()),
        "5xx": int(((status >= 500) & (status != 503) & (status != 504)).sum()),
        "transport": int((status == TRANSPORT_ERROR).sum()),
        "no_answer": int((status == NO_ANSWER).sum()),
        "other": int(((status != 200) & (status > 0) & (status < 500)).sum()),
    }


def _check_hot_slates(outcomes, handle, cfg, checks):
    """Sampled slates against an in-process AnnScorer on the served version."""
    kept = [(outcome, index) for outcome in outcomes for index in outcome.payloads]
    model, index, segment = attach_model(handle, with_index=True)
    try:
        users = np.array(sorted({int(outcome.users[i]) for outcome, i in kept}), dtype=np.int64)
        scorer = AnnScorer(model, index, nprobe=cfg["nprobe"])
        items, _ = scorer.top_k(users, cfg["k"])
        reference = {int(user): list(map(int, row)) for user, row in zip(users, items)}
    finally:
        model = index = scorer = None
        segment.close()
    return _compare(kept, lambda version, user: reference.get(user) if version == handle.version else None, checks)


def _compare(kept, reference_of, checks):
    """Mark sampled slates that differ from the reference as bad."""
    wrong = 0
    for outcome, i in kept:
        payload = outcome.payloads[i]
        expected = reference_of(int(payload["model_version"]), int(payload["user"]))
        if expected is None or list(payload["items"]) != list(expected):
            outcome.bad[i] = True
            wrong += 1
    checks.require(wrong == 0, f"{wrong} of {len(kept)} sampled slates differ from the in-process scorer")
    return wrong, len(kept)


def _check_live_slates(outcomes, report, checks):
    kept = [(outcome, index) for outcome in outcomes for index in outcome.payloads]
    users = [int(user) for user in report["check_users"]]
    position = {user: i for i, user in enumerate(users)}
    references = report["references"]

    def reference_of(version, user):
        items = references.get(version)
        return None if items is None else list(map(int, items[position[user]]))

    return _compare(kept, reference_of, checks)


def _staleness_ms(calls, outcomes):
    """Median time from an ingest() returning version v to the first
    response carrying v or later."""
    done = np.concatenate([outcome.done for outcome in outcomes])
    versions = np.concatenate([outcome.version for outcome in outcomes])
    order = np.argsort(done)
    done, versions = done[order], versions[order]
    lags = []
    for _, _, returned, version, _ in calls:
        if version is None:
            continue
        seen = np.flatnonzero((versions >= version) & (done >= returned))
        if len(seen):
            lags.append(done[seen[0]] - returned)
    return 1e3 * median(lags), len(lags)


def _leaked_segments(runtime_dir: str) -> int:
    """Segments named in a manifest left behind by an exited owner."""
    leaked = 0
    for name in os.listdir(runtime_dir):
        if name.startswith("segments-") and name.endswith(".json"):
            with open(os.path.join(runtime_dir, name), encoding="utf-8") as handle:
                leaked += len(json.load(handle).get("segments", []))
    return leaked


# --------------------------------------------------------------------------- #
# In-process layer probes (traced run only)
# --------------------------------------------------------------------------- #
def _users_per_s(scorer, users, k, batch=64):
    scorer.top_k(users[:batch], k)
    start = time.perf_counter()
    for offset in range(0, len(users), batch):
        scorer.top_k(users[offset : offset + batch], k)
    return len(users) / (time.perf_counter() - start)


def _probe_layers(handle, cfg, nominal, seed):
    """In-process numbers of the layers under the front door, on the
    served version and the nominal rung's request stream."""
    layers = {}
    attach_s = []
    for _ in range(4):
        start = time.perf_counter()
        model, index, segment = attach_model(handle, with_index=True)
        attach_s.append(time.perf_counter() - start)
        model = index = None
        segment.close()
    model, index, segment = attach_model(handle, with_index=True)
    exact = ann = service = None
    try:
        k = cfg["k"]
        users = np.concatenate([outcome.users for outcome in nominal])[:4096].astype(np.int64)
        layers["store.attach_s"] = median(attach_s)
        exact = Scorer(model)
        if cfg["ann"]:
            ann = AnnScorer(model, index, nprobe=cfg["nprobe"])
            layers["ann.users_per_s"] = _users_per_s(ann, users, k)
            sample = np.unique(users)[:512]
            layers["ann.recall_at_10"] = recall_at_k(ann.top_k(sample, 10)[0], exact.top_k(sample, 10)[0])
        else:
            layers["scorer.users_per_s"] = _users_per_s(exact, users, k)
        # In-process recommend on the nominal rung's request stream.
        service = RecommendationService(
            model, k=k, ann=cfg["ann"], nprobe=cfg.get("nprobe", 8), index=index, model_version=handle.version
        )
        times = []
        with service:
            for user in users[:2000]:
                start = time.perf_counter()
                service.recommend(int(user))
                times.append(time.perf_counter() - start)
        latency = np.concatenate([outcome.latency for outcome in nominal])
        client_p50 = percentile(latency[~np.isnan(latency)], 50)
        layers["service.overhead_ms.p50"] = 1e3 * (client_p50 - median(times))
        if not cfg["ann"]:
            publish_s = []
            with ModelStore() as store:
                for _ in range(5):
                    start = time.perf_counter()
                    store.publish(model)
                    publish_s.append(time.perf_counter() - start)
            layers["store.publish_ms"] = 1e3 * median(publish_s)
            rng = np.random.default_rng(seed)
            n_new, per_user = 2000, 10
            fixed = np.ascontiguousarray(model.q.T)
            group = np.repeat(np.arange(n_new), per_user)
            items = rng.integers(0, fixed.shape[0], size=len(group))
            vals = rng.uniform(1.0, 5.0, size=len(group))
            solve_fold_in(fixed, group, items, vals, n_new, 0.05)
            start = time.perf_counter()
            for _ in range(3):
                solve_fold_in(fixed, group, items, vals, n_new, 0.05)
            layers["sgd.foldin_users_per_s"] = 3 * n_new / (time.perf_counter() - start)
    finally:
        model = index = exact = ann = service = None
        segment.close()
    return layers


# --------------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------------- #
def run(cfg: dict, seed: int, seconds: float, tracer: Tracer, runtime_dir: str) -> dict:
    checks = Checks()
    live = cfg["name"] == "serve-live"
    segments = _segments(cfg, seconds)
    stream_seconds = sum(length for _, length in segments)
    limit_s = cfg["limit_ms"] / 1e3
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    host = ctx.Process(target=host_main, args=(child, cfg, seed, stream_seconds), name="perfbench-host")
    host.start()
    child.close()
    readers = []
    try:
        setups = []
        for number in range(cfg["setups"]):
            _, _, port, begin, published, ready = _recv(parent)
            address = ("127.0.0.1", port)
            status, _ = fetch(address, "/recommend?user=0")
            setups.append((begin, published, ready, time.monotonic()))
            checks.require(status == 200, f"the cold-start probe got HTTP {status}")
            if number < cfg["setups"] - 1:
                parent.send(("next",))
        readers = _reader_pids(host.pid)
        checks.require(len(readers) == cfg["readers"], f"found {len(readers)} reader processes")
        rng = np.random.default_rng(seed)
        draw = _user_sampler(cfg, rng)
        check_every = cfg["check_every"]
        check_users = None
        start = time.monotonic() + 0.5
        ingest_tid = None
        if live:
            parent.send(("stream", start))
            _, ingest_tid = _recv(parent)
        ladder_begin = start
        raw = []
        for rate, length in segments:
            due = fixed_rate_schedule(start, rate, length)
            users = draw(len(due))
            keep = np.zeros(len(due), dtype=bool)
            keep[::check_every] = True
            if live:
                # Sampled requests go to the users the server process keeps
                # per-version reference slates for.
                if check_users is None:
                    check_users = np.random.default_rng(seed + 1).choice(
                        cfg["base_users"], cfg["check_users"], replace=False
                    )
                users[keep] = rng.choice(check_users, size=int(keep.sum()))
            cpu0 = _cpu(host.pid, readers, ingest_tid)
            outcome = drive(address, due, users, cfg["connections"], cfg["k"], 1e3 * cfg["deadline_s"], keep)
            cpu1 = _cpu(host.pid, readers, ingest_tid)
            raw.append((rate, length, outcome, cpu0, cpu1))
            start = time.monotonic() + RUNG_GAP_S
        ladder_end = time.monotonic()
        status, stats = fetch(address, "/stats")
        checks.require(status == 200, f"/stats answered HTTP {status}")
        parent.send(("handle",))
        handle = _recv(parent)
        outcomes = [rung[2] for rung in raw]
        if not live:
            wrong, sampled = _check_hot_slates(outcomes, handle, cfg, checks)
        else:
            wrong, sampled = 0, 0
        layers = {}
        if tracer.enabled:
            nominal_outcomes = [rung[2] for rung in raw if rung[0] == cfg["nominal"]]
            layers = _probe_layers(handle, cfg, nominal_outcomes, seed)
        swaps = []
        if not live:
            # Freshness of the read path, after the ladder so the measured
            # load stays read-only: publish again, then time the first
            # answer carrying the new version.
            for _ in range(cfg["swaps"]):
                parent.send(("publish",))
                version, called, returned = _recv(parent)
                swaps.append((called, returned, first_response_with(address, 0, version)))
        parent.send(("stop",))
        _, report = _recv(parent)
        host.join(timeout=30.0)
    finally:
        if host.is_alive():
            readers = readers or _reader_pids(host.pid)
            host.terminate()
            host.join(timeout=10.0)
        # A server process that died or was stopped abruptly leaves its
        # reader processes behind; they must not outlive the run.
        for pid in readers:
            _kill_and_wait(pid)
        parent.close()

    if live:
        wrong, sampled = _check_live_slates(outcomes, report, checks)
    for outcome in outcomes:
        checks.attempt(len(outcome.due))
        checks.require(not outcome.wrong, f"malformed slates: {outcome.wrong[:3]}")
        checks.require(outcome.backwards == 0, f"{outcome.backwards} responses went back a model version")
    counts = _status_counts(outcomes)
    for kind, count in counts.items():
        checks.fail(kind, count)
    checks.fail("wrong_slate", wrong + sum(len(outcome.wrong) for outcome in outcomes))
    checks.fail("version_backwards", sum(outcome.backwards for outcome in outcomes))
    leaked = _leaked_segments(runtime_dir) + len(report["leaked_mappings"])
    checks.fail("shm_leaked", leaked)
    checks.require(leaked == 0, f"{leaked} shared-memory segments leaked")
    checks.require(report["ingest_error"] is None, f"the ingest stream failed: {report['ingest_error']}")

    rungs = _by_rate(
        [_rung_summary(*rung, limit_s, 1 if rung[0] == cfg["nominal"] else RUNG_WINDOWS) for rung in raw]
    )
    nominal = rungs[cfg["nominal"]]
    passing = [rate for rate, rung in rungs.items() if rung["meets_slo"]]
    cpu = nominal["cpu_per_req"]
    server_cpu_per_req = cpu["loop"] + cpu["readers"]
    setup_s = median([ready - begin for begin, _, ready, _ in setups])
    end_to_end = {
        "setup_s": setup_s,
        "p50_ms": nominal["p50_ms"],
        "goodput": nominal["goodput"],
        "slo_qps": float(max(passing)) if passing else 0.0,
        "cpu_us_per_req": 1e6 * server_cpu_per_req,
    }
    if live:
        calls = report["ingest_calls"]
        ingested = sum(call[4] for call in calls)
        staleness_ms, observed = _staleness_ms(calls, outcomes)
        end_to_end.update(
            staleness_ms=staleness_ms,
            ingest_ms=1e3 * median([returned - due for due, _, returned, _, _ in calls]),
            ratings_per_s=ingested / report["ingest_cpu_s"],
            test_rmse=report["test_rmse"],
            cpu_us_per_rating=1e6 * report["ingest_cpu_s"] / ingested,
        )
    else:
        end_to_end.update(
            staleness_ms=1e3 * median([first - returned for _, returned, first in swaps]),
            ingest_ms=1e3 * median([returned - called for called, returned, _ in swaps]),
            ratings_per_s=cfg["k"] / server_cpu_per_req,
            test_rmse=report["test_rmse"],
            cpu_us_per_rating=1e6 * server_cpu_per_req / cfg["k"],
        )
    out = {
        "end_to_end": end_to_end,
        "checks": checks,
        "wall_s": ladder_end - ladder_begin,
        "primary": ("p50_ms", "lower"),
        "rungs": [
            {
                key: _round(rung[key])
                for key in ("rate", "sent", "ok", "goodput", "p50_ms", "p99_ms", "meets_slo")
            }
            for rung in sorted(rungs.values(), key=lambda rung: rung["rate"])
        ],
        "sampled_slates": sampled,
    }
    if not tracer.enabled:
        return out

    total_sent = sum(rung["sent"] for rung in rungs.values())
    per_reader = [int(reader.get("requests", 0)) for reader in stats["readers"].values()]
    batches = sum(int(reader.get("batches_scored", 0)) for reader in stats["readers"].values())
    scored = sum(int(reader.get("users_scored", 0)) for reader in stats["readers"].values())
    layers.update(
        {
            "p99_ms": nominal["p99_ms"],
            "loadgen.late_ms.p99": nominal["late_p99_ms"],
            "loadgen.cpu_us_per_req": 1e6 * cpu["loadgen"],
            "service.loop_cpu_us_per_req": 1e6 * cpu["loop"],
            "reader.cpu_us_per_req": 1e6 * cpu["readers"],
            "service.rejected_share": counts["503"] / total_sent,
            "service.expired_share": counts["504"] / total_sent,
            "service.error_share": (counts["5xx"] + counts["transport"] + counts["no_answer"]) / total_sent,
            "service.max_in_flight": stats["server"]["max_in_flight"],
            "reader.batch_users_mean": scored / max(1, batches),
            "reader.cache_hit_rate": stats["cache_hit_rate"],
            "reader.imbalance": max(per_reader) / (sum(per_reader) / len(per_reader)),
            "reader.swaps": sum(int(reader.get("swaps", 0)) for reader in stats["readers"].values()),
            "reader.reload_failures": sum(int(r.get("reload_failures", 0)) for r in stats["readers"].values()),
            "shm.leaked_segments": leaked,
        }
    )
    if live:
        calls = report["ingest_calls"]
        durations = [returned - called for _, called, returned, _, _ in calls]
        stream = report["stream_stats"]
        layers.update(
            {
                "stream.ingest_call_ms.p50": 1e3 * percentile(durations, 50),
                "stream.ingest_call_ms.p99": 1e3 * percentile(durations, 99),
                "stream.publishes": stream["publishes"],
                "stream.folded_users": stream["folded_users"],
                "stream.retrains": stream["retrains"],
                "stream.publish_failures": stream["publish_failures"],
                "stream.retrain_s": report["retrain"]["end"] - report["retrain"]["start"],
                "stream.staleness_samples": observed,
            }
        )
    else:
        layers["store.publish_s"] = median(report["publish_s"])
        layers["ann.build_s"] = median(report["ann_build_s"])
    out["per_layer"] = layers
    out["lanes"] = _lanes(tracer, setups, outcomes, ladder_begin, ladder_end, report if live else None)
    return out


def _round(value):
    return round(float(value), 4) if isinstance(value, (float, np.floating)) else value


def _by_rate(segments) -> dict:
    """Pool the segments of each rate: counts, goodput and p99 over all
    its requests; p50 and CPU per request as medians over its segments."""
    pooled = {}
    for segment in segments:
        pooled.setdefault(segment["rate"], []).append(segment)
    rates = {}
    for rate, parts in pooled.items():
        sent = sum(part["sent"] for part in parts)
        latency = np.concatenate([part["latency_ms"] for part in parts])
        rates[rate] = {
            "rate": rate,
            "seconds": sum(part["seconds"] for part in parts),
            "sent": sent,
            "ok": sum(part["ok"] for part in parts),
            "goodput": sum(part["good"] for part in parts) / sent,
            "p50_ms": median([percentile(part["latency_ms"], 50) for part in parts]),
            "p99_ms": percentile(latency, 99),
            "backlog": any(part["backlog"] for part in parts),
            # The rung meets the SLO when some slice of it does: goodput
            # >= 0.99 with no backlog growing in that slice's segment.
            "meets_slo": any(
                value >= 0.99 and not part["backlog"] for part in parts for value in part["window_goodput"]
            ),
            "late_p99_ms": 1e3 * percentile(np.concatenate([part["late_ms"] for part in parts]), 99),
            "cpu_per_req": {
                name: median([part[key] / part["sent"] if key != "reader_cpu_s" else sum(part[key]) / part["sent"]
                              for part in parts])
                for name, key in (("loop", "loop_cpu_s"), ("readers", "reader_cpu_s"), ("loadgen", "loadgen_cpu_s"))
            },
            "outcomes": [part["outcome"] for part in parts],
        }
    return rates


def _lanes(tracer, setups, outcomes, begin, end, report):
    """Spans of the set-up, the load driver and (serve-live) the ingest thread."""
    setup = Tracer(True)
    root = setup.add("setup.all", setups[0][0], setups[-1][3])
    publish = "stream.base_train+publish" if report is not None else "ann.build+store.publish"
    for first_begin, published, ready, first in setups:
        span = setup.add("setup", first_begin, first, root)
        setup.add(publish, first_begin, published, span)
        setup.add("service.start", published, ready, span)
        setup.add("service.first_request", ready, first, span)
    lanes = {"setup": [(setup, root)]}
    root = tracer.add("ladder", begin, end)
    for outcome in outcomes:
        rung_span = tracer.add("loadgen.rung", outcome.due[0], np.nanmax(outcome.done), root)
        for index in range(len(outcome.due)):
            if np.isnan(outcome.done[index]):
                continue
            request = tracer.add("request", outcome.due[index], outcome.done[index], rung_span, index)
            tracer.add("loadgen.wait", outcome.due[index], outcome.sent[index], request, index)
            tracer.add("service.http", outcome.sent[index], outcome.done[index], request, index)
    lanes["loadgen"] = [(tracer, root)]
    if report is not None:
        ingest = Tracer(True)
        calls = report["ingest_calls"]
        root = ingest.add("stream", calls[0][0], max(calls[-1][2], report["retrain"].get("end", 0.0)))
        for _, called, returned, _, _ in calls:
            ingest.add("stream.ingest", called, returned, root)
        if report["retrain"]:
            ingest.add("stream.retrain", report["retrain"]["start"], report["retrain"]["end"], root)
        lanes["ingest"] = [(ingest, root)]
    return lanes
