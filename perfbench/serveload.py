"""Closed-loop load client for the prediction server.

One single-threaded process drives every connection through a
``selectors`` loop, so no client thread competes with the server for
the interpreter lock.  Each connection keeps ``window`` requests
outstanding: the caller is a simulator that waits for each decision
before it moves on, so a slower server receives less load.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field


@dataclass
class Accounting:
    """Every request sent and the one response it must get back.

    ``lost`` counts requests still unanswered when the client gave up;
    ``duplicates`` counts responses for an id already answered, and
    ``unknown`` responses for an id never sent.
    """

    sent_at: dict[str, float] = field(default_factory=dict)
    responses: dict[str, dict] = field(default_factory=dict)
    latencies_ms: dict[str, float] = field(default_factory=dict)
    decisions: int = 0
    typed_errors: int = 0
    error_types: dict[str, int] = field(default_factory=dict)
    duplicates: int = 0
    unknown: int = 0
    lost: int = 0

    @property
    def sent(self) -> int:
        return len(self.sent_at)

    def on_send(self, request_id: str, now: float) -> None:
        self.sent_at[request_id] = now

    def on_response(self, response: dict, now: float) -> None:
        request_id = str(response.get("id"))
        if request_id not in self.sent_at:
            self.unknown += 1
            return
        if request_id in self.responses:
            self.duplicates += 1
            return
        self.responses[request_id] = response
        self.latencies_ms[request_id] = (now - self.sent_at[request_id]) * 1000.0
        if response.get("ok"):
            self.decisions += 1
        else:
            self.typed_errors += 1
            kind = (response.get("error") or {}).get("type", "?")
            self.error_types[kind] = self.error_types.get(kind, 0) + 1

    def finish(self) -> None:
        """Count every request still unanswered as lost."""
        self.lost = self.sent - len(self.responses)

    @property
    def failed(self) -> int:
        return self.typed_errors + self.lost

    def request_latencies_ms(self, limit_ms: float) -> list[float]:
        """One latency per request sent; a request that failed or got no
        answer counts as taking ``limit_ms``, so it misses any limit."""
        out = []
        for request_id in self.sent_at:
            response = self.responses.get(request_id)
            if response is not None and response.get("ok"):
                out.append(self.latencies_ms[request_id])
            else:
                out.append(limit_ms)
        return out


def check_accounting(acct: Accounting) -> list[str]:
    """Problems with the rule that each request gets exactly one answer."""
    problems = []
    if acct.sent != acct.decisions + acct.typed_errors + acct.lost:
        problems.append(
            f"sent {acct.sent} != decisions {acct.decisions} + typed errors "
            f"{acct.typed_errors} + lost {acct.lost}"
        )
    if acct.lost:
        problems.append(f"{acct.lost} requests got no response")
    if acct.duplicates:
        problems.append(f"{acct.duplicates} duplicate responses")
    if acct.unknown:
        problems.append(f"{acct.unknown} responses for ids never sent")
    return problems


class _Conn:
    def __init__(self, sock: socket.socket, lines: list[tuple[str, bytes]]) -> None:
        self.sock = sock
        self.lines = lines
        self.next = 0
        self.outstanding = 0
        self.out = bytearray()
        self.inbuf = b""

    @property
    def done(self) -> bool:
        return self.next >= len(self.lines) and self.outstanding == 0


def closed_loop(
    host: str,
    port: int,
    per_connection: list[list[tuple[str, bytes]]],
    window: int,
    timeout_s: float,
) -> Accounting:
    """Send each connection's ``(id, encoded line)`` list, ``window`` in
    flight per connection, until every request is answered or
    ``timeout_s`` passes without progress."""
    acct = Accounting()
    selector = selectors.DefaultSelector()
    conns = []
    try:
        for lines in per_connection:
            sock = socket.create_connection((host, port), timeout=timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock, lines)
            conns.append(conn)
            selector.register(sock, selectors.EVENT_READ, conn)
        _drive(selector, conns, window, timeout_s, acct)
    except OSError:
        pass  # a dropped connection leaves its requests unanswered: lost
    finally:
        for conn in conns:
            selector.unregister(conn.sock)
            conn.sock.close()
        selector.close()
    acct.finish()
    return acct


def _drive(selector, conns: list[_Conn], window: int, timeout_s: float, acct: Accounting) -> None:
    last_progress = time.perf_counter()
    while not all(c.done for c in conns):
        for conn in conns:
            _fill(conn, window, acct)
        events = selector.select(timeout=0.5)
        now = time.perf_counter()
        for key, mask in events:
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                _flush(conn)
            if mask & selectors.EVENT_READ and _read(conn, acct, now):
                last_progress = now
        for conn in conns:
            wanted = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
            selector.modify(conn.sock, wanted, conn)
        if now - last_progress > timeout_s:
            return


def _fill(conn: _Conn, window: int, acct: Accounting) -> None:
    now = time.perf_counter()
    while conn.outstanding < window and conn.next < len(conn.lines):
        request_id, line = conn.lines[conn.next]
        conn.next += 1
        conn.outstanding += 1
        conn.out += line
        acct.on_send(request_id, now)
    _flush(conn)


def _flush(conn: _Conn) -> None:
    if not conn.out:
        return
    try:
        sent = conn.sock.send(conn.out)
    except BlockingIOError:
        return
    del conn.out[:sent]


def _read(conn: _Conn, acct: Accounting, now: float) -> bool:
    try:
        chunk = conn.sock.recv(1 << 16)
    except BlockingIOError:
        return False
    if not chunk:
        raise ConnectionError("server closed the connection")
    *lines, conn.inbuf = (conn.inbuf + chunk).split(b"\n")
    for line in lines:
        if line:
            acct.on_response(json.loads(line), now)
            conn.outstanding -= 1
    return bool(lines)


def request(host: str, port: int, message: dict, timeout_s: float = 10.0) -> dict:
    """One blocking request/response (for ``stats``)."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall((json.dumps(message) + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
    return json.loads(buf.split(b"\n", 1)[0])
