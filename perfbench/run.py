"""WaveKey loopback benchmark: one workload per run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload modp-serial --seed 1 --seconds 20 --trace 0

Each run launches the stock server (``python -m repro serve --listen``),
drives it over loopback with ``WaveKeyNetClient`` in a closed loop, stops
it with SIGTERM so it writes its metrics snapshot, and prints the result
as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (and adds the
in-process traced replay).  Timed end-to-end metrics are host-normalised
(see ``hostprobe.py`` and README.md); the raw values are the ``raw.*``
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import sys
import time
import traceback
from typing import List, Tuple

import layers
from hostprobe import cpu_ticks, steal_share
from loopback import (
    Probes, Server, SessionOutcome, check_accept, establish_one,
    make_client, run_serial,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: OT group of each workload.
WORKLOADS = {"modp-serial": "modp512", "curve-serial": "curve25519"}

KEY_BITS = 256
SETUP_LAUNCHES = 3
PROBES_PER_LAUNCH = 3
#: A session during which the hypervisor took more than this share of
#: the busy CPU time is offered once more (see README.md, "Steal").
STEAL_LIMIT = 0.05
#: Longest run whose sessions all have a reference outcome.
MAX_SECONDS = 60
#: Session seeds: the measured list and the warm-up sessions.
LIST_BASE, WARMUP_SEEDS = 1000, (900, 901)
FAIL_REASONS = ("reconcile", "tau", "shed", "transport", "other")


def percentile(values, q: int) -> float:
    """``q``-th percentile (inclusive interpolation); q=50 is the median."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def session_list(workload: str, seed: int, seconds: float, ref: dict):
    """The run's session seeds, in the order they are offered.

    The list is ``--seconds`` at the reference session rate, so every
    run of a given length offers the same sessions; ``--seed`` sets
    their order.  A session's outcome is fixed by its own seed, so the
    outcome mix (and with it keys/s) does not carry binomial sampling
    noise from run to run.
    """
    count = max(4, round(seconds * ref["offered_per_s"][workload]))
    seeds = list(range(LIST_BASE, LIST_BASE + count))
    random.Random(seed).shuffle(seeds)
    return seeds


def classify(outcome: SessionOutcome) -> str:
    """Terminal session outcome -> ``fail.*`` reason ('' if established)."""
    if outcome.state == "established":
        return ""
    if outcome.state == "transport_error":
        return "transport"
    if outcome.state == "shed":
        return "shed"
    if outcome.state == "timed_out" and outcome.reason.startswith("deadline"):
        return "tau"
    if outcome.state == "failed" and "reconcil" in outcome.reason:
        return "reconcile"
    return "other"


def sum_counters(snapshot: dict, name: str) -> float:
    """Sum of a counter over all its label sets."""
    return sum(value for key, value in snapshot.get("counters", {}).items()
               if key == name or key.startswith(name + "{"))


def hist_mean(snapshot: dict, name: str) -> float:
    hist = snapshot.get("histograms", {}).get(name) or {}
    return float(hist.get("mean") or 0.0)


def server_layers(snapshot: dict) -> dict:
    """Per-layer numbers from the server's ``--metrics-out`` snapshot."""
    items = sum_counters(snapshot, "imu_en.items")
    batches = sum_counters(snapshot, "imu_en.batches")
    hits = sum_counters(snapshot, "crypto.pool.hit")
    misses = sum_counters(snapshot, "crypto.pool.miss")
    return {
        "service.batch_size.mean": items / batches if batches else 0.0,
        "service.queue_wait_ms.mean":
            1000 * hist_mean(snapshot, "service.queue_wait_s"),
        "service.encoder_latency_ms.mean":
            1000 * hist_mean(snapshot, "service.encoder_latency_s"),
        "service.agree_ms.mean":
            1000 * hist_mean(snapshot, "service.agree_s"),
        "crypto.pool.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
    }


class Run:
    """One benchmark run: set-up, warm-up, measurement, checks."""

    def __init__(self, args, ref: dict, spec: dict):
        self.args = args
        self.ref = ref
        self.units = {m["name"]: m["unit"]
                      for m in spec["end_to_end"] + spec["per_layer"]}
        self.group = WORKLOADS[args.workload]
        self.workdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(self.workdir, exist_ok=True)
        self.probes = Probes()
        self.servers = []
        self.failed_checks = []
        self.layer = {}

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed_checks.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def stop_all(self) -> None:
        for server in self.servers:
            server.stop()

    def setup(self) -> Tuple[Server, float]:
        """One discarded launch, then SETUP_LAUNCHES timed ones; the
        last keeps serving.  Returns it and the normalised ``setup_s``."""
        launches = []
        for i in range(1 + SETUP_LAUNCHES):
            self.probes.run(PROBES_PER_LAUNCH)
            server = Server(ROOT, self.workdir, self.group, f"launch{i}")
            self.servers.append(server)
            elapsed = server.start()
            if i:
                launches.append(elapsed)
            if i < SETUP_LAUNCHES:
                server.stop()
        raw = statistics.median(launches)
        self.layer["raw.setup_s"] = raw
        return server, raw * self.ref["probe_ms"] / statistics.median(
            self.probes.values)

    def warm(self, server: Server) -> None:
        """Check the Accept terms, then run discarded sessions so the OT
        pool and comb tables are built on both sides."""
        from repro.core.pretrained import load_default_bundle
        from repro.obs.metrics import MetricsRegistry

        terms = check_accept(server)
        self.check(terms["eta"] == load_default_bundle().eta,
                   f"server eta {terms['eta']} is not the bundle's")
        self.check(terms["key_length_bits"] == KEY_BITS,
                   f"server keys are {terms['key_length_bits']} bits")
        client = make_client(server, MetricsRegistry())
        for seed in WARMUP_SEEDS:
            establish_one(client, seed)

    def check_sessions(self, outcomes: List[SessionOutcome]) -> None:
        """Established and failed sessions must match their checked-in
        reference (state, attempts, frames): those outcomes are fixed by
        the session's seed.  Timed-out, shed and transport-failed
        sessions depend on host timing and are counted, not checked."""
        expected = self.ref["sessions"][self.args.workload]
        for o in outcomes:
            if o.state not in ("established", "failed"):
                continue
            got = [o.state, o.attempts, o.frames]
            want = expected.get(str(o.seed))
            self.check(got == want,
                       f"session {o.seed}: {got}, reference {want}")
        with open(os.path.join(
                self.workdir, f"sessions-{self.args.workload}.json"),
                "w") as fh:
            json.dump({str(o.seed): [o.state, o.attempts, o.frames]
                       for o in sorted(outcomes, key=lambda o: o.seed)},
                      fh, indent=0)

    def execute(self) -> dict:
        from repro.obs.metrics import MetricsRegistry

        server, setup_s = self.setup()
        self.warm(server)

        # The timed closed loop.  CPU is read over the whole loop, probes
        # taken out; wall-clock metrics come from the kept sessions.
        seeds = session_list(self.args.workload, self.args.seed,
                             self.args.seconds, self.ref)
        metrics = MetricsRegistry()
        client = make_client(server, metrics)

        def wire() -> Tuple[int, int]:
            snapshot = metrics.snapshot()
            return tuple(int(sum_counters(snapshot, f"net.{what}_sent")
                             + sum_counters(snapshot, f"net.{what}_received"))
                         for what in ("frames", "bytes"))

        first_probe = len(self.probes.values)
        cpu_server = server.cpu_s()
        cpu_client = time.process_time()
        probe_cpu = self.probes.cpu_s
        ticks = cpu_ticks()
        kept, every = run_serial(client, seeds, self.probes, wire,
                                 STEAL_LIMIT)
        client_cpu = (time.process_time() - cpu_client
                      - (self.probes.cpu_s - probe_cpu))
        server_cpu = server.cpu_s() - cpu_server
        loop_steal = steal_share(ticks)
        rss_mb = server.rss_mb()
        snapshot = server.stop()
        self.check(bool(snapshot), "server wrote no metrics snapshot")
        self.check_sessions(every)

        fails = dict.fromkeys(FAIL_REASONS, 0)
        for o in kept:
            reason = classify(o)
            if reason:
                fails[reason] += 1
            else:
                self.check(o.key_bits == KEY_BITS and o.ticket is not None,
                           f"session {o.seed}: {o.key_bits}-bit key, "
                           f"ticket {o.ticket}")
        failed = sum(fails.values())
        attempts = sum(o.attempts for o in kept)
        served = sum(o.attempts for o in every)
        wall = sum(o.wall_s for o in kept)
        # One sample per attempt: the session's wall time / attempts.
        samples = [o.wall_s / o.attempts for o in kept
                   for _ in range(o.attempts)]
        raw = {
            "attempt_ms.p50": 1000 * percentile(samples, 50),
            "attempt_ms.p90": 1000 * percentile(samples, 90),
            "attempt_ms.p99": 1000 * percentile(samples, 99),
            "keys_per_s": (len(kept) - failed) / wall,
            "server_cpu_ms_per_attempt": 1000 * server_cpu / served,
            "client_cpu_ms_per_attempt": 1000 * client_cpu / served,
        }
        # Host speed: reference probe / median probe between sessions.
        probe = statistics.median(self.probes.values[first_probe:])
        speed = self.ref["probe_ms"] / probe
        e2e = {
            "setup_s": setup_s,
            "attempt_ms.p50": raw["attempt_ms.p50"] * speed,
            "attempt_ms.p90": raw["attempt_ms.p90"] * speed,
            "keys_per_s": raw["keys_per_s"] / speed,
            "server_cpu_ms_per_attempt":
                raw["server_cpu_ms_per_attempt"] * speed,
            "client_cpu_ms_per_attempt":
                raw["client_cpu_ms_per_attempt"] * speed,
            "server_rss_mb": rss_mb,
        }
        net_frames = sum(o.frames for o in kept)
        net_bytes = sum(o.wire_bytes for o in kept)
        self.layer.update({f"raw.{k}": v for k, v in raw.items()})
        self.layer.update({
            "attempt_ms.p99": raw["attempt_ms.p99"] * speed,
            "host.probe_ms": probe,
            "host.probe_wall_ms": statistics.median(
                self.probes.walls[first_probe:]),
            "host.steal_share": loop_steal,
            "host.resampled": len(every) - len(kept),
            "attempts": attempts,
            **{f"fail.{r}": n for r, n in fails.items()},
            "net.bytes_per_attempt": net_bytes / attempts,
            "net.frames_per_attempt": net_frames / attempts,
            **server_layers(snapshot),
        })
        self.report(e2e, wall, {
            "sessions": len(kept), "attempts": attempts,
            **{f"fail.{r}": n for r, n in fails.items()},
            "net.frames": net_frames, "net.bytes": net_bytes,
        })
        return {"attempted": len(kept), "failed": failed, "e2e": e2e}

    def report(self, e2e: dict, wall: float, counts: dict) -> None:
        """Human-readable lines before the JSON result."""
        for name in (*e2e, "attempt_ms.p99", "host.probe_ms",
                     "host.probe_wall_ms", "host.steal_share",
                     "host.resampled", "raw.setup_s",
                     "raw.attempt_ms.p50", "raw.attempt_ms.p90",
                     "raw.keys_per_s", "raw.server_cpu_ms_per_attempt",
                     "raw.client_cpu_ms_per_attempt"):
            value = e2e[name] if name in e2e else self.layer[name]
            print(f"{name:30s} {value:12.4f} {self.units[name]}")
        print(f"{'measured_wall_s':30s} {wall:12.4f} s")
        print("counts: " + json.dumps(counts, sort_keys=True))

    def trace_layers(self) -> None:
        """The traced run's extra work: replay, micro-benchmarks, cold
        start.  Spans are written to .perfbench_out at the end."""
        seeds = session_list(self.args.workload, self.args.seed,
                             self.args.seconds, self.ref)
        spans = layers.Spans()
        self.layer.update(layers.replay(
            self.group, seeds, self.args.seconds / 3, spans))
        self.layer.update(layers.micro(self.group))
        self.layer.update(layers.setup_costs(ROOT))
        spans.write_jsonl(os.path.join(
            self.workdir,
            f"spans-{self.args.workload}-{self.args.seed}.jsonl"))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through stop_all()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="order of the offered sessions (default 1; "
                             "2718 is held out for later claims)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="work offered, in seconds at the reference "
                             f"rate (default 20, at most {MAX_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics (traced run)")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no src/repro next to perfbench/; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    signal.signal(signal.SIGTERM, _terminate)

    run = Run(args, ref, spec)
    try:
        result = run.execute()
        if args.trace:
            run.trace_layers()
    except Exception:  # noqa: BLE001 - report, clean up, fail the run
        traceback.print_exc()
        return 1
    finally:
        run.stop_all()

    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run.layer if args.trace else result["e2e"]
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.failed_checks,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in table},
    }))
    return 1 if run.failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
