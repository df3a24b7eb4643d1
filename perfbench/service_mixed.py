"""service-mixed: an open-loop request stream against ``repro-probe serve``.

The daemon runs in a subprocess with one job worker and ``engine_jobs=1``.
One single-threaded generator sends ``POST /estimate`` requests at a
fixed rate (:data:`RATE` per second, well below capacity: the traced run
reports the job worker's busy share) and polls ``GET /jobs/<id>`` for the
fresh jobs it has outstanding.  Fresh jobs are small estimates (n = 105
to 255, :data:`TRIALS` trials in chunks of :data:`CHUNK`), bitpacked
deterministic and numpy randomized in a fixed rotation; a fixed share of
requests repeats an earlier fresh request and must be answered from the
result cache.  Half of the fresh jobs (with their polls) and half of the
repeats go over one persistent connection, the rest open a connection per
request (see :class:`Client`).  The seed draws the phase of the schedule,
the rotation offsets, the engine seeds, which requests are repeated and
the gaps between polls.

A fresh job is timed from when it was due to be sent until the generator
sees it done; a repeat by its POST round trip.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import OUT_DIR, ROOT, SETUP_REPEATS, WORK_DIR, Metric, Outcome, median, percentile

#: The CPUs this benchmark may use, read once: the generator runs on the
#: first and every daemon on the second.
CPUS = sorted(os.sched_getaffinity(0))

#: Requests per second, sent at fixed intervals.
RATE = 5.0
#: Every request in this cycle position is a repeat (2 of 5: 40%).
REPEAT_SLOTS = (1, 3)
CYCLE = 5
#: A repeat copies a fresh request due at least this many seconds earlier.
REPEAT_MIN_AGE = 2.0
#: The shortest request plan, so that even a short run sends repeats.
MIN_PLAN_S = 3 * REPEAT_MIN_AGE
TRIALS = 4096
CHUNK = 1024
#: Mean gap between polls.  Gaps are exponential, so the delay until a
#: finished job is seen does not depend on how long the job ran.
POLL_S = 0.01
JOB_TIMEOUT = 30.0
#: Connection models: a new connection per request, or one kept alive.
MODES = ("close", "keep")
#: Fresh jobs whose results are recomputed in-process and compared.
CHECKED_JOBS = 4
#: The rotation of fresh job kinds: (system, size, randomized, backend, p).
JOB_KINDS = (
    ("tree", 7, False, "bitpacked", 0.5),
    ("maj", 201, False, "bitpacked", 0.3),
    ("tree", 6, True, "numpy", 0.3),
    ("triang", 14, True, "numpy", 0.5),
)


def plan_requests(seed: int, seconds: float) -> list[dict]:
    """The request schedule: due time, kind, body and connection model of
    every request."""
    rng = random.Random(seed)
    offset = rng.randrange(len(JOB_KINDS))
    mode_offset = rng.randrange(len(MODES))
    phase = rng.random()
    plan: list[dict] = []
    fresh: list[dict] = []
    repeats = 0
    while True:
        due = (len(plan) + phase) / RATE
        if due >= seconds:
            return plan
        eligible = [item for item in fresh if item["due"] <= due - REPEAT_MIN_AGE]
        if len(plan) % CYCLE in REPEAT_SLOTS and eligible:
            original = rng.choice(eligible)
            mode = MODES[(mode_offset + repeats) % len(MODES)]
            repeats += 1
            plan.append({"due": due, "kind": "repeat", "body": original["body"], "mode": mode})
            continue
        body_kind = (offset + len(fresh)) % len(JOB_KINDS)
        # Each kind alternates between the modes on its successive turns.
        mode = MODES[(mode_offset + len(fresh) // len(JOB_KINDS)) % len(MODES)]
        system, size, randomized, backend, p = JOB_KINDS[body_kind]
        body = {
            "system": system,
            "size": size,
            "p": p,
            "randomized": randomized,
            "backend": backend,
            "trials": TRIALS,
            "chunk_size": CHUNK,
            "seed": rng.randrange(2**31),
        }
        item = {"due": due, "kind": "fresh", "body": body, "job_kind": body_kind, "mode": mode}
        fresh.append(item)
        plan.append(item)


class Daemon:
    """``repro-probe serve`` in a subprocess (traced through the launcher
    when ``spans_file`` is given)."""

    def __init__(self, name: str, spans_file: Path | None = None, run_id: str = "") -> None:
        self.data_dir = WORK_DIR / name
        self.data_dir.mkdir(parents=True)
        serve = ["serve", "--data-dir", str(self.data_dir), "--port", "0",
                 "--workers", "1", "--engine-jobs", "1"]
        if spans_file is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            launcher = Path(__file__).with_name("service_launcher.py")
            command = [sys.executable, str(launcher), str(spans_file), run_id, *serve]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = open(self.data_dir / "daemon.log", "w")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=env, text=True
        )
        # The daemon and the generator each get a CPU of their own, so
        # neither waits for the other to be scheduled.
        if len(CPUS) >= 2:
            os.sched_setaffinity(self.process.pid, {CPUS[1]})
            os.sched_setaffinity(0, {CPUS[0]})
        self.port = self._wait_for_port(timeout=60.0)

    def _wait_for_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("serving on http://"):
                return int(line.split()[2].rsplit(":", 1)[1])
        self.stop()
        log = (self.data_dir / "daemon.log").read_text()[-2000:]
        raise RuntimeError(f"service daemon did not announce its port:\n{log}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.log.close()


class Client:
    """HTTP calls to the daemon under either connection model.

    ``close`` opens a connection per request and sends ``Connection:
    close``, as ``urllib.request.urlopen`` does; that is the client of the
    repository's own service tests and CI smoke job.  ``keep`` reuses one
    persistent HTTP/1.1 connection, as an ``http.client.HTTPConnection``
    or a pooling client library does.  The generator thus holds at most two
    connections at a time.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self._kept: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def call(self, method: str, path: str, body: dict | None = None,
             mode: str = "close") -> tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        if mode == "close":
            headers["Connection"] = "close"
            connection = self._connect()
        else:
            if self._kept is None:
                self._kept = self._connect()
            connection = self._kept
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as error:
            if mode == "keep":
                self.close()
            return 0, {"error": f"{type(error).__name__}: {error}"}
        finally:
            if mode == "close":
                connection.close()

    def close(self) -> None:
        if self._kept is not None:
            self._kept.close()
            self._kept = None


def warm_up(client: Client) -> None:
    """One tiny job of every kind, so lazy imports happen in set-up."""
    for index, (system, size, randomized, backend, p) in enumerate(JOB_KINDS):
        mode = MODES[index % len(MODES)]
        status, body = client.call("POST", "/estimate", {
            "system": system, "size": size, "p": p, "randomized": randomized,
            "backend": backend, "trials": 64, "seed": 2**31 + 7,
        }, mode)
        if status != 202:
            raise RuntimeError(f"warm-up job rejected: {status} {body}")
        deadline = time.monotonic() + JOB_TIMEOUT
        while client.call("GET", f"/jobs/{body['id']}", mode=mode)[1].get("state") != "done":
            if time.monotonic() > deadline:
                raise RuntimeError(f"warm-up job {body['id']} did not finish")
            time.sleep(POLL_S)


def drive(client: Client, plan: list[dict], outcome: Outcome, rng: random.Random) -> dict:
    """Send the plan open-loop; returns latencies and load-generator figures."""
    jobs: list[tuple[tuple, float]] = []  # ((job kind, mode), seconds)
    hits: dict[str, list[float]] = {mode: [] for mode in MODES}
    polls: dict[str, list[float]] = {mode: [] for mode in MODES}
    late: list[float] = []
    post_rtt = 0.0
    rejected = 0
    outstanding: dict[str, dict] = {}  # job id -> plan item, in send order
    start = time.perf_counter()
    index = 0
    next_poll = 0.0
    while index < len(plan) or outstanding:
        now = time.perf_counter()
        if index < len(plan) and now >= start + plan[index]["due"]:
            item = plan[index]
            index += 1
            late.append(now - start - item["due"])
            status, body = client.call("POST", "/estimate", item["body"], item["mode"])
            done_at = time.perf_counter()
            post_rtt += done_at - now
            rejected += status == 503
            if item["kind"] == "repeat":
                hits[item["mode"]].append(done_at - now)
                outcome.attempt("repeat", status == 200 and body.get("cached") is True,
                                f"repeat answered {status} cached={body.get('cached')}")
            elif status == 202:
                outstanding[body["id"]] = item
            else:
                outcome.attempt("fresh", False, f"POST answered {status}: {body.get('error')}")
            continue
        if outstanding and now >= next_poll:
            job_id, item = next(iter(outstanding.items()))
            status, view = client.call("GET", f"/jobs/{job_id}", mode=item["mode"])
            seen = time.perf_counter()
            polls[item["mode"]].append(seen - now)
            next_poll = seen + rng.expovariate(1 / POLL_S)
            state = view.get("state")
            overdue = seen - start - item["due"] > JOB_TIMEOUT
            if state == "done" or state == "failed" or status != 200 or overdue:
                del outstanding[job_id]
                ok = status == 200 and state == "done"
                if ok:
                    jobs.append(((item["job_kind"], item["mode"]), seen - start - item["due"]))
                    item["result"] = view["result"]
                outcome.attempt("fresh", ok, f"{job_id}: HTTP {status}, state {state}")
            continue
        wake = start + plan[index]["due"] if index < len(plan) else float("inf")
        if outstanding:
            wake = min(wake, next_poll)
        time.sleep(max(0.0, wake - time.perf_counter()))
    return {"jobs": jobs, "hits": hits, "polls": polls, "late": late,
            "post_rtt": post_rtt, "rejected": rejected}


def group_median(samples) -> float:
    """The median of each group, averaged over the groups.

    ``samples`` is ``(group, seconds)`` pairs.  Job kinds and connection
    models differ in cost, so a pooled median would sit between two groups'
    latencies and jump with a sample or two more of one group.
    """
    groups: dict = {}
    for group, seconds_taken in samples:
        groups.setdefault(group, []).append(seconds_taken)
    return sum(median(values) for values in groups.values()) / len(groups)


def pairs(by_mode: dict[str, list[float]]) -> list[tuple[str, float]]:
    return [(mode, value) for mode, values in by_mode.items() for value in values]


def check_results(plan: list[dict], rng: random.Random, outcome: Outcome) -> None:
    """Recompute sampled fresh jobs in-process; results must match exactly."""
    from repro.algorithms import default_deterministic_algorithm, default_randomized_algorithm
    from repro.core.distributions import build_source
    from repro.core.engine import stream_probes
    from repro.service.jobs import deterministic_view, estimate_result_payload, normalize_estimate
    from repro.systems import build_system

    done = [item for item in plan if item["kind"] == "fresh" and "result" in item]
    for item in rng.sample(done, min(CHECKED_JOBS, len(done))):
        params = normalize_estimate(dict(item["body"]))
        system = build_system(params["system"], params["size"])
        if params["randomized"]:
            algorithm = default_randomized_algorithm(system)
        else:
            algorithm = default_deterministic_algorithm(system)
        result = stream_probes(
            algorithm,
            build_source(params["distribution"], system, params["p"]),
            trials=params["trials"],
            chunk_size=params["chunk_size"],
            seed=params["seed"],
            backend=params["backend"],
        )
        expected = deterministic_view(estimate_result_payload(result))
        outcome.attempt("check", deterministic_view(item["result"]) == expected,
                        f"{params['system']}({params['size']}) seed {params['seed']}: "
                        "served result differs from an in-process run")


def start_daemon(name: str, **tracing) -> tuple[Daemon, Client, float]:
    """Start a daemon and warm it up; returns it with its set-up seconds."""
    began = time.perf_counter()
    daemon = Daemon(name, **tracing)
    client = Client(daemon.port)
    try:
        warm_up(client)
    except BaseException:
        client.close()
        daemon.stop()
        raise
    return daemon, client, time.perf_counter() - began


def stop(daemon: Daemon, client: Client) -> None:
    client.close()
    daemon.stop()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    # Every set-up starts a new daemon process, so each one is cold.
    setups = []
    for attempt in range(SETUP_REPEATS):
        daemon, client, taken = start_daemon(f"setup-{attempt}")
        setups.append(taken)
        if attempt < SETUP_REPEATS - 1:
            stop(daemon, client)
    outcome.metrics["setup_s"] = Metric(median(setups), "s", len(setups))

    plan_seconds = max(MIN_PLAN_S, seconds / 2 if trace else seconds)
    plan = plan_requests(seed, plan_seconds)
    try:
        figures = drive(client, plan, outcome, random.Random(seed))
    finally:
        stop(daemon, client)
    check_results(plan, random.Random(seed), outcome)

    hits = [value for values in figures["hits"].values() for value in values]
    jobs = [seconds_taken for _, seconds_taken in figures["jobs"]]
    outcome.samples = {
        "job_s": figures["jobs"], "hit_s": figures["hits"], "poll_s": figures["polls"],
        "late_s": figures["late"],
    }
    outcome.metrics["primary_s"] = Metric(
        group_median(figures["jobs"]), "s", len(jobs),
        "job_p50_s per job kind and connection model, averaged",
    )
    outcome.metrics["secondary_s"] = Metric(
        group_median(pairs(figures["hits"])), "s", len(hits),
        "hit_p50 in s per connection model, averaged",
    )
    outcome.extra["job_p50_s"] = Metric(median(jobs), "s", len(jobs), "all groups pooled")
    outcome.extra["hit_p50_ms"] = Metric(1000 * median(hits), "ms", len(hits), "pooled")
    for mode in MODES:
        mode_jobs = [(group, taken) for group, taken in figures["jobs"] if group[1] == mode]
        outcome.extra[f"job_p50_s.{mode}"] = Metric(
            group_median(mode_jobs), "s", len(mode_jobs), "per job kind, averaged"
        )
        for name, values in (("hit", figures["hits"][mode]), ("poll", figures["polls"][mode])):
            outcome.extra[f"{name}_p50_ms.{mode}"] = Metric(
                1000 * median(values), "ms", len(values)
            )
    for name, values, scale in (("job_p90_s", jobs, 1), ("hit_p90_ms", hits, 1000)):
        value = percentile(values, 0.9)
        if value is not None:
            outcome.extra[name] = Metric(scale * value, "s" if scale == 1 else "ms", len(values))
    late = figures["late"]
    outcome.extra["loadgen_late_ms"] = Metric(
        1000 * sum(late) / len(late), "ms", len(late), f"mean; max {1000 * max(late):.2f} ms"
    )
    if trace:
        trace_run(seed, plan_seconds, figures, outcome)
    return outcome


def open_trace_window(daemon: Daemon, spans_file: Path) -> None:
    """Have the traced daemon drop every span that ends before now.

    The launcher answers SIGUSR1 by noting the moment and creating the
    marker file; the spans of set-up and warm-up end before it.
    """
    marker = spans_file.with_suffix(".window")
    daemon.process.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 30.0
    while not marker.exists():
        if time.monotonic() > deadline or daemon.process.poll() is not None:
            raise RuntimeError("traced daemon did not open its trace window")
        time.sleep(0.001)
    marker.unlink()


def trace_run(seed: int, plan_seconds: float, untraced: dict, outcome: Outcome) -> None:
    """Replay the same plan against a traced daemon; derive the layers."""
    from tracing import layer_metrics, layer_report

    run_id = f"service-mixed-{seed}"
    spans_file = OUT_DIR / f"trace-{run_id}.json"
    daemon, client, _ = start_daemon("traced", spans_file=spans_file, run_id=run_id)
    try:
        open_trace_window(daemon, spans_file)
        began = time.perf_counter()
        figures = drive(client, plan_requests(seed, plan_seconds), outcome, random.Random(seed))
        wall = time.perf_counter() - began
    finally:
        stop(daemon, client)
    spans = json.loads(spans_file.read_text())
    late = figures["late"]
    client_figures = {
        "post_rtt_s": figures["post_rtt"],
        "rejected": figures["rejected"],
        "late_ms": 1000 * sum(late) / len(late),
    }
    overhead = group_median(figures["jobs"]) / group_median(untraced["jobs"]) - 1.0
    outcome.layers = layer_metrics(spans, wall, overhead, client_figures)
    outcome.report = layer_report(spans, wall, overhead)
    fresh = len(figures["jobs"])
    busy = outcome.layers["service.busy_share"][0] * wall
    if fresh and busy:
        outcome.report.append(
            f"capacity: {fresh} fresh jobs took {busy:.3f} s of daemon work, about "
            f"{fresh / busy:.1f} jobs/s on one worker; offered {fresh / wall:.2f} jobs/s "
            f"({busy / wall:.0%} of capacity)"
        )
