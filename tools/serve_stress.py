#!/usr/bin/env python3
"""Stress `msn_cli serve --port` with parallel, partly hostile clients.

serve_smoke.py walks the protocol over stdin; this driver hammers the
TCP front with the traffic docs/SERVICE.md promises to survive:

  * a storm of parallel clients submitting overlapping requests:
    every request gets exactly one response, duplicates are answered
    identically across connections (modulo the per-request trace_id),
    and the DP runs at most once per distinct net (in-flight
    coalescing + cache) — while a poller thread on its own connection
    validates `{"op":"stats"}` snapshots (schema + lifecycle
    inequality) mid-storm;
  * mid-request disconnects: clients that submit work and vanish
    without reading must not crash the server (SIGPIPE), wedge a
    worker, or leak their connection fd — the server keeps serving and
    the fd count settles back to its baseline;
  * deadlines expiring mid-DP on deliberately oversized nets: the
    answer is a structured `cancelled` (or pre-start `timeout`) line in
    bounded time, never a full multi-second run;
  * load shedding under a tiny --max-queue: ok + overloaded responses
    add up to the submitted count, nothing hangs, nothing is dropped;
  * slow-loris writers: a client trickling its request byte by byte
    stalls only itself — concurrent normal clients complete while the
    loris is still typing;
  * after all of that: the stats document is schema-valid and
    internally consistent, and one shutdown op drains every connection
    for a clean exit 0.

Every socket has a hard timeout and the whole run is bounded by the
CTest TIMEOUT, so a deadlock fails fast instead of hanging CI.

Usage: serve_stress.py /path/to/msn_cli [--jobs N] [--clients K]
"""

import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time


sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_stats_schema  # noqa: E402  (sibling module)

SOCKET_TIMEOUT_S = 120
# Deadline for the oversized-net request, and how long the cancelled
# answer may take to arrive.  The net itself needs far longer than
# ANSWER_BOUND_S to optimize, so meeting the bound proves mid-DP
# abandonment rather than a fast run.
CANCEL_DEADLINE_MS = 300
ANSWER_BOUND_S = 8


def fail(msg):
    print("serve_stress: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def gen_net(cli, seed, terminals=5):
    fd, net_path = tempfile.mkstemp(suffix=".msn")
    os.close(fd)
    try:
        gen = subprocess.run(
            [cli, "gen", "--terminals", str(terminals), "--seed",
             str(seed), "-o", net_path],
            capture_output=True, text=True, timeout=120)
        if gen.returncode != 0:
            fail("gen exited %d: %s" % (gen.returncode, gen.stderr))
        with open(net_path) as f:
            return f.read()
    finally:
        os.unlink(net_path)


class TcpServer:
    """`msn_cli serve --port 0` plus the port parsed from its stderr."""

    def __init__(self, cli, jobs, extra_flags=()):
        self.proc = subprocess.Popen(
            [cli, "serve", "--port", "0", "--jobs", str(jobs),
             "--cache-entries", "64"] + list(extra_flags),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not m:
            self.proc.kill()
            fail("no listening line on stderr, got: %r" % line)
        self.port = int(m.group(1))

    def fd_count(self):
        try:
            return len(os.listdir("/proc/%d/fd" % self.proc.pid))
        except OSError:
            return -1  # /proc not available; caller skips the check

    def shutdown(self):
        """Clean shutdown via the protocol; returns the exit code."""
        with Client(self.port) as c:
            c.send({"op": "shutdown", "id": "bye"})
            resp = c.recv()
            if not (resp.get("ok") and resp.get("shutdown")):
                fail("shutdown response: %r" % resp)
        try:
            return self.proc.wait(timeout=SOCKET_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            fail("server did not exit after shutdown (leaked thread or"
                 " wedged drain)")

    def kill(self):
        self.proc.kill()
        self.proc.wait()


class Client:
    """One line-delimited JSON connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=SOCKET_TIMEOUT_S)
        self.buf = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def send_slowly(self, obj, chunk=1, delay_s=0.01, max_slow_bytes=64):
        """Slow-loris: trickle the first bytes, then finish the line."""
        data = (json.dumps(obj) + "\n").encode()
        slow, rest = data[:max_slow_bytes], data[max_slow_bytes:]
        for i in range(0, len(slow), chunk):
            self.sock.sendall(slow[i:i + chunk])
            time.sleep(delay_s)
        if rest:
            self.sock.sendall(rest)

    def recv_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def recv(self):
        line = self.recv_line()
        if line is None:
            fail("server closed the connection mid-conversation")
        return json.loads(line)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def run_thread_pool(thunks):
    """Runs every thunk on its own thread; propagates the first error."""
    errors = []

    def wrap(fn):
        try:
            fn()
        except BaseException as e:  # noqa: BLE001 - surfaced below
            errors.append(e)

    threads = [threading.Thread(target=wrap, args=(fn,)) for fn in thunks]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def check_live_stats(doc, where):
    """Validates one mid-storm `{"op":"stats"}` snapshot (the schema
    checker enforces the lifecycle inequality too)."""
    try:
        check_stats_schema._check_service(doc, where)
    except check_stats_schema.SchemaError as e:
        return "%s schema violation: %s" % (where, e)
    return None


def scenario_storm(server, nets, clients):
    """Parallel duplicate-heavy traffic: exactly-one, byte-identical.

    A poller thread sends `{"op":"stats"}` on its own connection the
    whole time, where the barrier has nothing to drain: every live
    snapshot must be schema-valid (including the latency histograms)
    and hold the lifecycle inequality even while requests are in
    flight — it must never block behind the storm or expose a torn
    document.
    """
    responses = {}  # (client, req index) -> (net index, line)
    lock = threading.Lock()
    storm_done = threading.Event()
    poll_errors = []
    snaps = []

    def poller():
        try:
            with Client(server.port) as conn:
                while not storm_done.is_set():
                    conn.send({"op": "stats", "id": "live"})
                    doc = conn.recv()
                    err = check_live_stats(doc, "live stats")
                    if err:
                        poll_errors.append(err)
                        return
                    if snaps and (doc["requests"]["received"] <
                                  snaps[-1]["requests"]["received"]):
                        poll_errors.append("live received count went"
                                           " backwards")
                        return
                    snaps.append(doc)
                    time.sleep(0.02)
        except BaseException as e:  # noqa: BLE001 - surfaced below
            poll_errors.append("live stats poller died: %r" % e)

    def client_fn(c):
        def run():
            with Client(server.port) as conn:
                # Every client submits every net, ids unique per client.
                for i, net in enumerate(nets):
                    conn.send({"op": "optimize", "id": "c%d-n%d" % (c, i),
                               "net": net})
                got = {}
                for _ in nets:
                    resp = conn.recv()
                    if not resp.get("ok"):
                        fail("storm optimize failed: %r" % resp)
                    got[resp["id"]] = json.dumps(resp, sort_keys=True)
                with lock:
                    for i in range(len(nets)):
                        rid = "c%d-n%d" % (c, i)
                        if rid not in got:
                            fail("client %d got no response for %s"
                                 % (c, rid))
                        responses[(c, i)] = got[rid]
        return run

    poll_thread = threading.Thread(target=poller)
    poll_thread.start()
    try:
        run_thread_pool([client_fn(c) for c in range(clients)])
    finally:
        storm_done.set()
        poll_thread.join()
    if poll_errors:
        fail(poll_errors[0])
    if not snaps:
        fail("live stats poller produced no mid-storm snapshots")
    if len(responses) != clients * len(nets):
        fail("expected %d responses, got %d"
             % (clients * len(nets), len(responses)))
    # Identical net => identical payload across every connection (ids
    # and trace_ids differ by construction, so compare everything else).
    for i in range(len(nets)):
        payloads = set()
        for c in range(clients):
            doc = json.loads(responses[(c, i)])
            doc.pop("id")
            doc.pop("trace_id", None)
            payloads.add(json.dumps(doc, sort_keys=True))
        if len(payloads) != 1:
            fail("net %d answered %d distinct payloads across clients"
                 % (i, len(payloads)))
    print("serve_stress: storm OK (%d clients x %d nets, %d live"
          " snapshots)" % (clients, len(nets), len(snaps)))


def scenario_disconnects(server, big_net, clients):
    """Submit-and-vanish clients; the server must shrug them off."""
    fd_baseline = server.fd_count()

    def vanish(c):
        def run():
            conn = Client(server.port)
            conn.send({"op": "optimize", "id": "ghost%d" % c,
                       "net": big_net})
            # Half the ghosts die instantly, half mid-DP.
            if c % 2:
                time.sleep(0.1)
            conn.close()
        return run

    run_thread_pool([vanish(c) for c in range(clients)])

    # The server is still alive and serving...
    with Client(server.port) as probe:
        probe.send({"op": "stats", "id": "alive"})
        if probe.recv().get("schema") != check_stats_schema.SERVICE_SCHEMA:
            fail("server unresponsive after disconnect storm")
    # ...and every ghost's fd is reclaimed once their cancelled DPs
    # unwind.  Reaping happens on the accept thread when a connection
    # arrives, so each poll makes a throwaway connection to trigger it;
    # that probe itself may sit unreaped, hence the +1 slack.
    if fd_baseline > 0:
        deadline = time.monotonic() + SOCKET_TIMEOUT_S
        while True:
            Client(server.port).close()
            time.sleep(0.05)
            if server.fd_count() <= fd_baseline + 1:
                break
            if time.monotonic() > deadline:
                fail("fd count stuck at %d (baseline %d): leaked"
                     " connections" % (server.fd_count(), fd_baseline))
    print("serve_stress: disconnects OK (%d ghosts, fds reclaimed)"
          % clients)


def scenario_deadline(server, big_net):
    """A deadline expiring mid-DP answers `cancelled` in bounded time."""
    start = time.monotonic()
    with Client(server.port) as conn:
        conn.send({"op": "optimize", "id": "doomed", "net": big_net,
                   "deadline_ms": CANCEL_DEADLINE_MS})
        resp = conn.recv()
    elapsed = time.monotonic() - start
    if resp.get("ok"):
        fail("oversized net finished under a %dms deadline: suspicious"
             % CANCEL_DEADLINE_MS)
    if not (resp.get("cancelled") or resp.get("timeout")):
        fail("expected cancelled/timeout, got: %r" % resp)
    if elapsed > ANSWER_BOUND_S:
        fail("cancelled answer took %.1fs (bound %ds): cancellation is"
             " not bounding the DP" % (elapsed, ANSWER_BOUND_S))
    print("serve_stress: deadline OK (%s in %.2fs)"
          % ("cancelled" if resp.get("cancelled") else "timeout",
             elapsed))


def scenario_shedding(cli, jobs, nets):
    """--max-queue 1: every burst request is answered ok or overloaded."""
    server = TcpServer(cli, jobs, ["--max-queue", "1"])
    try:
        with Client(server.port) as conn:
            for i, net in enumerate(nets):
                conn.send({"op": "optimize", "id": "burst%d" % i,
                           "net": net})
            ok = overloaded = 0
            for _ in nets:
                resp = conn.recv()
                if resp.get("ok"):
                    ok += 1
                elif resp.get("overloaded"):
                    overloaded += 1
                else:
                    fail("burst answer neither ok nor overloaded: %r"
                         % resp)
        if ok + overloaded != len(nets):
            fail("burst: %d ok + %d overloaded != %d submitted"
                 % (ok, overloaded, len(nets)))
        if ok < 1:
            fail("queue gate shed everything, even the first request")
        code = server.shutdown()
        if code != 0:
            fail("shedding server exited %d" % code)
        print("serve_stress: shedding OK (%d ok, %d overloaded)"
              % (ok, overloaded))
    finally:
        if server.proc.poll() is None:
            server.kill()


def scenario_slow_loris(server, nets):
    """A byte-at-a-time writer must not stall other connections."""
    loris_done = threading.Event()

    def loris():
        with Client(server.port) as conn:
            conn.send_slowly({"op": "optimize", "id": "loris",
                              "net": nets[0]})
            if not conn.recv().get("ok"):
                fail("slow-loris request was not served")
        loris_done.set()

    normal_finished = []

    def normal():
        with Client(server.port) as conn:
            conn.send({"op": "optimize", "id": "fast", "net": nets[1]})
            if not conn.recv().get("ok"):
                fail("normal client failed during slow-loris")
            # The loris is still mid-trickle: we were not serialized
            # behind it.
            normal_finished.append(not loris_done.is_set())

    t = threading.Thread(target=loris)
    t.start()
    time.sleep(0.05)  # let the loris start trickling
    run_thread_pool([normal])
    t.join()
    if not normal_finished or not normal_finished[0]:
        fail("normal client completed only after the slow-loris "
             "finished: slow writers serialize the server")
    print("serve_stress: slow-loris OK")


def final_stats(server):
    """Schema-valid, internally consistent stats after the abuse."""
    with Client(server.port) as conn:
        conn.send({"op": "stats", "id": "final"})
        doc = conn.recv()
    try:
        check_stats_schema._check_service(doc, "serve_stress")
    except check_stats_schema.SchemaError as e:
        fail("stats schema violation: %s" % e)
    req = doc["requests"]
    print("serve_stress: stats OK (received=%d ok=%d cancelled=%d"
          " shed_queue=%d)" % (req["received"], req["ok"],
                               req["cancelled"], req["shed_queue"]))


def main():
    if len(sys.argv) < 2:
        fail("usage: serve_stress.py /path/to/msn_cli"
             " [--jobs N] [--clients K]")
    cli = sys.argv[1]
    jobs = "4"
    clients = 8
    if "--jobs" in sys.argv:
        jobs = sys.argv[sys.argv.index("--jobs") + 1]
    if "--clients" in sys.argv:
        clients = int(sys.argv[sys.argv.index("--clients") + 1])

    nets = [gen_net(cli, seed=s) for s in (41, 42, 43)]
    # A full run of this net takes ~15s in a release build (far beyond
    # ANSWER_BOUND_S), so the deadline scenario can only pass by
    # abandoning the DP mid-run.
    big_net = gen_net(cli, seed=44, terminals=44)

    server = TcpServer(cli, jobs)
    try:
        scenario_storm(server, nets, clients)
        scenario_slow_loris(server, nets)
        scenario_deadline(server, big_net)
        scenario_disconnects(server, big_net, clients // 2)
        final_stats(server)
        code = server.shutdown()
        if code != 0:
            fail("server exited %d after shutdown" % code)
    finally:
        if server.proc.poll() is None:
            server.kill()
    scenario_shedding(cli, jobs, nets)
    print("serve_stress: OK")


if __name__ == "__main__":
    main()
