"""Drive a stock ``repro serve`` subprocess over loopback TCP.

Everything here goes through the program's public surface: the CLI
server, :class:`repro.net.WaveKeyNetClient` and the client
:class:`repro.obs.metrics.MetricsRegistry`.  Results are returned
raw (seconds, counts); host normalisation and percentiles happen in
``run.py``.  ``repro`` is imported lazily, once ``run.py`` has put the
checkout's ``src`` on the path.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hostprobe import cpu_ticks, probe_ms, steal_share

#: Server launch deadline; the first launch in a fresh checkout also
#: compiles bytecode.
LAUNCH_TIMEOUT_S = 120.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Server:
    """One ``python -m repro serve --listen`` process."""

    def __init__(self, root: str, workdir: str, group: str, name: str):
        self.root = root
        self.group = group
        self.port_file = os.path.join(workdir, f"{name}.port")
        self.metrics_file = os.path.join(workdir, f"{name}.metrics.json")
        self.log_file = os.path.join(workdir, f"{name}.log")
        self.proc: Optional[subprocess.Popen] = None
        self.address = ("", 0)

    def start(self) -> float:
        """Launch and wait for the port file; returns launch seconds."""
        for path in (self.port_file, self.metrics_file):
            if os.path.exists(path):
                os.remove(path)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--listen", "127.0.0.1:0", "--port-file", self.port_file,
            "--sessions", "0", "--metrics-out", self.metrics_file,
            "--group", self.group,
        ]
        with open(self.log_file, "w") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=log,
                stderr=subprocess.STDOUT,
            )
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}; "
                    f"see {self.log_file}"
                )
            if time.perf_counter() - started > LAUNCH_TIMEOUT_S:
                raise RuntimeError("server did not publish its port")
            time.sleep(0.002)
        elapsed = time.perf_counter() - started
        with open(self.port_file) as fh:
            host, _, port = fh.read().strip().rpartition(":")
        self.address = (host, int(port))
        return elapsed

    def cpu_s(self) -> float:
        """Server user+system CPU seconds so far (``/proc``)."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmRSS line")

    def stop(self) -> Dict:
        """SIGTERM, wait, and return the server's metrics snapshot."""
        if self.proc is None:
            return {}
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if not os.path.exists(self.metrics_file):
            return {}
        with open(self.metrics_file) as fh:
            return json.load(fh)


@dataclass
class Probes:
    """Probe times (ms): thread CPU time and wall time of each probe."""

    values: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)

    def run(self, n: int = 1) -> None:
        """``n`` probes on each CPU this process may use: the server and
        the client migrate between CPUs, which need not run at one speed."""
        cpus = os.sched_getaffinity(0)
        try:
            for _ in range(n):
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    thread_ms, wall_ms = probe_ms()
                    self.values.append(thread_ms)
                    self.walls.append(wall_ms)
        finally:
            os.sched_setaffinity(0, cpus)

    @property
    def cpu_s(self) -> float:
        return sum(self.values) / 1000.0


def make_client(server: Server, metrics):
    from repro.crypto.group import resolve_group
    from repro.net import NetClientConfig, WaveKeyNetClient

    host, port = server.address
    return WaveKeyNetClient(
        host, port, NetClientConfig(group=resolve_group(server.group)),
        metrics=metrics,
    )


def check_accept(server: Server) -> Dict:
    """Open one raw session and return the server's ``Accept`` terms.

    The session is abandoned after the Accept, before any measurement.
    The default group travels as an empty id, as the client sends it.
    """
    from repro.net.codec import Accept, Hello
    from repro.net.connection import connect

    conn = connect(*server.address, timeout_s=10.0)
    try:
        conn.send(Hello(
            sender="perfbench-check", rng_seed=1,
            group_id="" if server.group == "modp512" else server.group,
        ))
        answer = conn.recv(timeout_s=30.0)
    finally:
        conn.close()
    if not isinstance(answer, Accept):
        raise RuntimeError(f"expected Accept, got {answer!r}")
    return {"eta": answer.eta, "key_length_bits": answer.key_length_bits}


@dataclass
class SessionOutcome:
    seed: int
    state: str
    attempts: int
    wall_s: float
    reason: str = ""
    key_bits: int = 0
    ticket: object = None
    frames: int = 0
    wire_bytes: int = 0
    steal: float = 0.0


def establish_one(client, seed: int) -> SessionOutcome:
    from repro.errors import TransportError

    started = time.perf_counter()
    try:
        result = client.establish(seed)
    except TransportError as exc:
        return SessionOutcome(
            seed, "transport_error", 1, time.perf_counter() - started,
            reason=str(exc),
        )
    return SessionOutcome(
        seed, result.state, max(1, result.attempts),
        time.perf_counter() - started,
        reason=result.failure_reason or "",
        key_bits=len(result.key) if result.key is not None else 0,
        ticket=result.ticket,
    )


def run_serial(client, seeds: Sequence[int], probes: Probes,
               wire: Callable[[], Tuple[int, int]], steal_limit: float,
               ) -> Tuple[List[SessionOutcome], List[SessionOutcome]]:
    """Closed loop, one client: probe between sessions, outside timing.

    ``wire`` reads the client's (frames, bytes) counters, so each outcome
    also carries the frames and bytes its session sent and received.  A
    session during which the host stole more than ``steal_limit`` of the
    busy CPU time is offered once more at the end of the list, and its
    second run is kept.  Returns the kept outcomes, one per seed, and
    every outcome.
    """
    queue = deque((seed, True) for seed in seeds)
    kept, every = [], []
    before = wire()
    while queue:
        seed, may_repeat = queue.popleft()
        ticks = cpu_ticks()
        outcome = establish_one(client, seed)
        outcome.steal = steal_share(ticks)
        after = wire()
        outcome.frames = after[0] - before[0]
        outcome.wire_bytes = after[1] - before[1]
        before = after
        every.append(outcome)
        if may_repeat and outcome.steal > steal_limit:
            queue.append((seed, False))
        else:
            kept.append(outcome)
        probes.run()
    return kept, every
