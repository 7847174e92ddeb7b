"""The benchmark's open-loop HTTP load driver.

One process, separate from the server, holding at most ``connections``
keep-alive sockets.  Requests are sent on a fixed schedule of due
times; a request that finds no free connection waits inside the driver
(FIFO), so a stall in the server shows up as latency of the requests
queued behind it.  Every latency is timed from the request's *due*
time, never from when it was sent.  The driver also records how late
its own loop noticed each due time (``wake - due``), which is the
generator's lateness, kept apart from the wait for a connection.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: Status recorded for a request that lost its connection.
TRANSPORT_ERROR = -1
#: Status recorded for a request with no answer by the drain deadline.
NO_ANSWER = -2


@dataclass
class Outcome:
    """Per-request record of one schedule, indexable by request number."""

    due: np.ndarray
    users: np.ndarray
    wake: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    version: np.ndarray
    bad: np.ndarray
    wrong: List[str] = field(default_factory=list)
    backwards: int = 0
    payloads: Dict[int, dict] = field(default_factory=dict)
    waiting_at_last_due: int = 0

    @property
    def latency(self) -> np.ndarray:
        return self.done - self.due


class _Conn:
    __slots__ = ("sock", "buf", "request", "last_version")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.request = -1
        self.last_version = -1


def _connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _take_response(buf: bytearray):
    """Split one complete response off ``buf``: ``(status, body)`` or None."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    head = bytes(buf[:head_end]).lower()
    marker = head.find(b"content-length:")
    length = 0
    if marker >= 0:
        line_end = head.find(b"\r\n", marker)
        length = int(head[marker + 15 : line_end if line_end >= 0 else len(head)])
    total = head_end + 4 + length
    if len(buf) < total:
        return None
    status = int(head[9:12])
    body = bytes(buf[head_end + 4 : total])
    del buf[:total]
    return status, body


def drive(
    address,
    due: np.ndarray,
    users: np.ndarray,
    connections: int,
    k: int,
    deadline_ms: float,
    keep_payload: Optional[np.ndarray] = None,
    drain_s: float = 5.0,
) -> Outcome:
    """Send ``GET /recommend`` for ``users[i]`` at monotonic time ``due[i]``.

    ``due`` must be ascending.  ``keep_payload[i]`` keeps request ``i``'s
    decoded slate for a later comparison against an in-process scorer.
    Every 200 is checked on the spot: the slate names the requested user,
    holds ``k`` items, and its model version never goes backwards on its
    connection.
    """
    n = len(due)
    outcome = Outcome(
        due=due,
        users=users,
        wake=np.full(n, np.nan),
        sent=np.full(n, np.nan),
        done=np.full(n, np.nan),
        status=np.full(n, NO_ANSWER, dtype=np.int64),
        version=np.full(n, -1, dtype=np.int64),
        bad=np.zeros(n, dtype=bool),
    )
    target = f"/recommend?k={k}&deadline_ms={deadline_ms:g}&user="
    requests = [f"GET {target}{int(user)} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii") for user in users]
    selector = selectors.DefaultSelector()
    idle = deque()
    waiting = deque()
    next_due = 0
    finished = 0
    give_up = (due[-1] if n else time.monotonic()) + drain_s
    # The driver allocates no reference cycles while sending; a collection
    # pass mid-schedule would only make the generator late.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(connections):
            conn = _Conn(_connect(address))
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            idle.append(conn)
        while finished < n:
            now = time.monotonic()
            while next_due < n and due[next_due] <= now:
                outcome.wake[next_due] = now
                waiting.append(next_due)
                next_due += 1
                if next_due == n:
                    outcome.waiting_at_last_due = len(waiting)
            while waiting and idle:
                index = waiting.popleft()
                conn = idle.popleft()
                conn.request = index
                outcome.sent[index] = time.monotonic()
                try:
                    conn.sock.sendall(requests[index])
                except OSError:
                    finished += _fail(outcome, conn, selector, address, idle)
            if now > give_up:
                break
            timeout = (due[next_due] - time.monotonic()) if next_due < n else (give_up - now)
            for key, _ in selector.select(max(0.0, min(timeout, 0.5))):
                conn = key.data
                try:
                    chunk = conn.sock.recv(65536)
                except OSError:
                    chunk = b""
                if not chunk:
                    finished += _fail(outcome, conn, selector, address, idle)
                    continue
                conn.buf += chunk
                parsed = _take_response(conn.buf)
                if parsed is None or conn.request < 0:
                    continue
                index, conn.request = conn.request, -1
                outcome.done[index] = time.monotonic()
                status, body = parsed
                outcome.status[index] = status
                finished += 1
                if status == 200:
                    _check_slate(outcome, index, conn, body, k, keep_payload)
                idle.append(conn)
    finally:
        for key in list(selector.get_map().values()):
            key.data.sock.close()
        selector.close()
        if gc_was_enabled:
            gc.enable()
    return outcome


def _check_slate(outcome, index, conn, body, k, keep_payload) -> None:
    payload = json.loads(body)
    version = int(payload["model_version"])
    outcome.version[index] = version
    if version < conn.last_version:
        outcome.bad[index] = True
        outcome.backwards += 1
    conn.last_version = max(conn.last_version, version)
    user = int(outcome.users[index])
    if int(payload["user"]) != user or len(payload["items"]) != k:
        outcome.bad[index] = True
        outcome.wrong.append(f"request {index}: user {payload['user']} with {len(payload['items'])} items for {user}")
    if keep_payload is not None and keep_payload[index]:
        outcome.payloads[index] = payload


def _fail(outcome, conn, selector, address, idle) -> int:
    """Fail the connection's in-flight request and replace the socket."""
    failed = 0
    if conn.request >= 0:
        outcome.status[conn.request] = TRANSPORT_ERROR
        outcome.done[conn.request] = time.monotonic()
        conn.request = -1
        failed = 1
    selector.unregister(conn.sock)
    conn.sock.close()
    fresh = _Conn(_connect(address))
    selector.register(fresh.sock, selectors.EVENT_READ, fresh)
    if conn in idle:
        idle.remove(conn)
    idle.append(fresh)
    return failed


def fixed_rate_schedule(start: float, rate: float, seconds: float) -> np.ndarray:
    """Due times of an open-loop stream at a fixed ``rate`` per second."""
    return start + np.arange(int(rate * seconds)) / rate


def fetch(address, path: str, timeout: float = 5.0):
    """One ``GET`` on a fresh connection: ``(status, decoded JSON body)``."""
    with _connect(address) as sock:
        sock.settimeout(timeout)
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode("ascii"))
        buf = bytearray()
        while True:
            parsed = _take_response(buf)
            if parsed is not None:
                status, body = parsed
                return status, (json.loads(body) if body else None)
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError(f"connection closed before the response to {path}")
            buf += chunk


def first_response_with(address, user: int, version: int, timeout: float = 5.0) -> float:
    """Request ``user`` back to back on one connection until an answer
    carries ``version`` or later; return that answer's arrival time."""
    request = f"GET /recommend?user={user} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")
    give_up = time.monotonic() + timeout
    with _connect(address) as sock:
        sock.settimeout(timeout)
        buf = bytearray()
        while time.monotonic() < give_up:
            sock.sendall(request)
            parsed = _take_response(buf)
            while parsed is None:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("connection closed while waiting for a new version")
                buf += chunk
                parsed = _take_response(buf)
            arrived = time.monotonic()
            status, body = parsed
            if status == 200 and json.loads(body)["model_version"] >= version:
                return arrived
    raise TimeoutError(f"no answer carried version {version} within {timeout} s")
