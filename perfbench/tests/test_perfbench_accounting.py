import json
import socket
import threading

import pytest

from serveload import Accounting, check_accounting, closed_loop


def _accounting(responses):
    acct = Accounting()
    for i in range(3):
        acct.on_send(f"r{i}", 0.0)
    for response in responses:
        acct.on_response(response, 0.001)
    acct.finish()
    return acct


def test_clean_accounting_passes():
    acct = _accounting([
        {"id": "r0", "ok": True},
        {"id": "r1", "ok": False, "error": {"type": "shed"}},
        {"id": "r2", "ok": True},
    ])
    assert check_accounting(acct) == []
    assert (acct.decisions, acct.typed_errors, acct.lost) == (2, 1, 0)
    assert acct.failed == 1


def test_dropped_response_fails():
    acct = _accounting([{"id": "r0", "ok": True}, {"id": "r2", "ok": True}])
    assert acct.lost == 1
    assert any("no response" in p for p in check_accounting(acct))


def test_duplicated_response_fails():
    acct = _accounting([
        {"id": "r0", "ok": True},
        {"id": "r1", "ok": True},
        {"id": "r1", "ok": True},
        {"id": "r2", "ok": True},
    ])
    assert acct.duplicates == 1
    assert any("duplicate" in p for p in check_accounting(acct))


def test_failed_requests_miss_the_latency_limit():
    acct = _accounting([{"id": "r0", "ok": True}, {"id": "r1", "ok": False}])
    latencies = acct.request_latencies_ms(limit_ms=500.0)
    assert sorted(latencies) == pytest.approx([1.0, 500.0, 500.0])


class _FakeServer:
    """NDJSON server on localhost answering every request line once,
    except the ones named in ``drop`` (never) and ``dup`` (twice)."""

    def __init__(self, drop=(), dup=()):
        self.drop, self.dup = set(drop), set(dup)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, conn):
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                request_id = json.loads(line)["id"]
                if request_id in self.drop:
                    continue
                reply = (json.dumps({"id": request_id, "ok": True}) + "\n").encode()
                conn.sendall(reply * (2 if request_id in self.dup else 1))

    def close(self):
        self.listener.close()


def _requests(prefix, n):
    return [(f"{prefix}{i}", (json.dumps({"id": f"{prefix}{i}"}) + "\n").encode())
            for i in range(n)]


@pytest.mark.parametrize("drop, dup, problem", [
    ((), (), None),
    (("a5",), (), "no response"),
    ((), ("b7",), "duplicate"),
])
def test_closed_loop_accounting_against_a_local_server(drop, dup, problem):
    server = _FakeServer(drop=drop, dup=dup)
    try:
        acct = closed_loop("127.0.0.1", server.port,
                           [_requests("a", 40), _requests("b", 40)],
                           window=4, timeout_s=0.5)
    finally:
        server.close()
    assert acct.sent == 80
    problems = check_accounting(acct)
    if problem is None:
        assert problems == [] and acct.decisions == 80
    else:
        assert any(problem in p for p in problems)
