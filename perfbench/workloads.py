"""The four workloads and the metrics each reports.

Every workload follows the same shape: make the inputs from the seed, set up
once, then run whole rounds of the same operations, one at a time from one
client (a closed loop), until ``--seconds`` have passed.  One-off phases
(set-up, recovery, the durability probe) are repeated a fixed number of
times, spread evenly over the run by :class:`Spread`, so their medians do
not rest on one moment of the machine.  Every output is checked by
:mod:`checks`; a failed check counts its operation as failed.

The program is reached only through ``DiagnosisEngine.submit`` and
``diagnose_batch``, and through ``DiagnosisClient`` talking to a durable
``DiagnosisServer`` started in this process.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import shutil
import threading
import time
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import inputs
import measure
from checks import CaseOracle, CheckFailed, Table, check_same_log, render, statements
from layers import LayerClock

#: Worker counts the benchmark controls never exceed the machine's cores.
NPROC = os.cpu_count() or 1

#: Set-ups per run, spread over it; ``setup_s`` is their median.
SETUPS = 11
#: Timed recoveries of the staged crash per run, spread over it;
#: ``recover_s`` is their median.
RECOVERIES = {"session-durable": 5, "probe": 16}
#: Probe points per run; each recovers the probe's store twice.
PROBE_POINTS = RECOVERIES["probe"] // 2

#: Tail percentile of each workload: the highest of p99, p95, p90, p80 and
#: p75 with at least ten samples beyond it in every run (see MIN_ROUNDS),
#: except batch-bnb, whose p99 moved too much across seeds (README).
DIAGNOSE_TAIL = {
    "request-mix": 95.0,
    "long-history": 75.0,
    "batch-bnb": 95.0,
    "session-durable": 75.0,
}
#: Rounds every run makes at least, so the tails above have their samples.
MIN_ROUNDS = {"request-mix": 2, "long-history": 8, "batch-bnb": 2, "session-durable": 4}

#: Session-durable sizes: sessions, rows per table, cycles per round,
#: one-statement appends per cycle.
SESSION_SIZE = dict(sessions=4, rows=2000, cycles=3, appends=24)
#: The durability probe that gives the append, recovery and store metrics on
#: workloads whose own operations make no appends.  Cycle 0 stages its crash;
#: every probe point appends cycle 1.
PROBE_SIZE = dict(sessions=1, rows=1000, cycles=2, appends=24)


@dataclass
class Run:
    """One run's operations, samples, failures and (traced) layer clock."""

    traced: bool
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rounds: int = 0
    round_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    diagnose_s: list[float] = field(default_factory=list)
    append_s: list[float] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    f1: list[float] = field(default_factory=list)
    summaries: list[dict[str, Any]] = field(default_factory=list)
    #: Seconds spent waiting on diagnoses (the closed loop's busy time).
    diagnose_busy_s: float = 0.0
    #: Seconds inside every timed operation: the traced wall time.
    op_wall_s: float = 0.0
    request_queries: int = 0
    store_mb: float = 0.0
    peak_rss_mb: float = 0.0
    #: Whole-run problems; any of them makes the result's ``correct`` false.
    problems: list[str] = field(default_factory=list)
    #: Facts for the report and the per-layer metrics: discarded vacuous
    #: inputs, batch wall time and shards, the store's durability counters.
    extra: dict[str, float] = field(default_factory=dict)
    clock: LayerClock | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def count_from(self, other: "Run") -> None:
        """Take over ``other``'s attempted and failed operations."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])
        other.attempted = other.failed = 0
        other.failures.clear()

    def timed(self, call: Callable[[], Any]) -> tuple[Any, float]:
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        self.op_wall_s += elapsed
        return result, elapsed

    def record_diagnosis(self, response: Any, oracle: CaseOracle, queries: int) -> None:
        """Check one diagnosis response; keep its F1 and summary."""
        self.request_queries += queries
        try:
            if not response.ok:
                raise CheckFailed(f"{response.error_type}: {response.error_message}")
            self.summaries.append(dict(response.summary))
            self.f1.append(oracle.check(response.status, response.repaired_sql))
        except CheckFailed as error:
            self.fail(f"{response.request_id}: {error}")


class Spread:
    """Side tasks made a fixed number of times at evenly spaced points of a run.

    The workload calls :meth:`tick` between its own operations; the ``i``-th
    of a task's ``count`` runs is due once ``(i + 0.5) / count`` of the run's
    seconds have passed, and one tick runs each task at most once.
    :meth:`finish` makes whatever a run left undone, so every run makes
    every task exactly ``count`` times.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.tasks: list[list[Any]] = []
        self.start = time.perf_counter()

    def add(self, count: int, task: Callable[[], None]) -> None:
        self.tasks.append([count, 0, task])

    def begin(self) -> None:
        self.start = time.perf_counter()

    def tick(self) -> None:
        elapsed = time.perf_counter() - self.start
        for entry in self.tasks:
            count, done, task = entry
            if done < count and elapsed >= (done + 0.5) * self.seconds / count:
                entry[1] += 1
                task()

    def finish(self) -> None:
        for entry in self.tasks:
            while entry[1] < entry[0]:
                entry[1] += 1
                entry[2]()


def _rounds(
    run: Run,
    seconds: float,
    one_round: Callable[[], None],
    min_rounds: int,
    spread: Spread,
) -> None:
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done.

    The benchmark's own long-lived objects (inputs, oracles, set-up) are
    moved out of the collector's reach first, so the program's garbage
    collections cost the same whatever the size of the inputs kept here.
    """
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    spread.begin()
    while True:
        begun = time.perf_counter()
        one_round()
        run.round_s.append(time.perf_counter() - begun)
        run.rounds += 1
        if run.rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
    spread.finish()


# -- in-process engine workloads -------------------------------------------------------


def _setup_engine(run: Run, make: Callable[[], Any], warmup: list[Any]) -> Any:
    """Build an engine and warm it up (one ``setup_s`` sample)."""
    start = time.perf_counter()
    engine = make()
    responses = engine.diagnose_batch(warmup) if len(warmup) > 1 else [engine.submit(warmup[0])]
    run.setup_s.append(time.perf_counter() - start)
    for response in responses:
        if not response.ok:
            engine.close()
            raise RuntimeError(f"warm-up failed: {response.error_message}")
    return engine


def _engine_spread(seed: int, run: Run, work: Path, seconds: float, setup: Callable[[], None]) -> tuple[Spread, "_Probe"]:
    """The side tasks of an engine workload: set-ups and the probe.

    Traced runs make neither, so they add nothing to the per-layer metrics.
    """
    spread = Spread(seconds)
    probe = _Probe(seed, run, work)
    if not run.traced:
        spread.add(SETUPS - 1, setup)
        spread.add(PROBE_POINTS, probe.point)
    return spread, probe


def _engine_workload(
    name: str,
    seed: int,
    seconds: float,
    run: Run,
    work: Path,
    cases: list[inputs.Case],
    warmup: list[Any],
    stats: inputs.InputStats,
) -> None:
    """Requests one at a time to ``DiagnosisEngine.submit``."""
    from repro.service.engine import DiagnosisEngine

    def make() -> Any:
        return DiagnosisEngine(max_workers=NPROC, executor="serial")

    run.extra["vacuous_discarded"] = stats.vacuous_discarded
    run.extra["screened_out"] = stats.screened_out
    engine = _setup_engine(run, make, warmup)
    spread, probe = _engine_spread(
        seed, run, work, seconds, lambda: _setup_engine(run, make, warmup).close()
    )

    def one_round() -> None:
        for case in cases:
            run.attempted += 1
            response, elapsed = run.timed(lambda: engine.submit(case.request))
            run.diagnose_s.append(elapsed)
            run.diagnose_busy_s += elapsed
            run.record_diagnosis(response, case.oracle, case.queries)
            spread.tick()

    try:
        with _tracing(run):
            _rounds(run, seconds, one_round, MIN_ROUNDS[name], spread)
        run.peak_rss_mb = measure.peak_rss_mb()
    finally:
        engine.close()
    probe.finish()


def request_mix(seed: int, seconds: float, run: Run, work: Path) -> None:
    cases, stats = inputs.request_mix(seed)
    warmup = [case.request for case in inputs.warmup_cases()]
    _engine_workload("request-mix", seed, seconds, run, work, cases, warmup, stats)


def long_history(seed: int, seconds: float, run: Run, work: Path) -> None:
    cases, stats = inputs.long_history(seed)
    warmup = [inputs.long_history_warmup()]
    _engine_workload("long-history", seed, seconds, run, work, cases, warmup, stats)


def batch_bnb(seed: int, seconds: float, run: Run, work: Path) -> None:
    from repro.service.engine import DiagnosisEngine

    def make() -> Any:
        return DiagnosisEngine(max_workers=NPROC, executor="process")

    batches, stats = inputs.batch_bnb(seed)
    run.extra["vacuous_discarded"] = stats.vacuous_discarded
    order = random.Random(seed)
    plans = []
    for cases in batches:
        plan = [case for case in cases for _ in range(inputs.BATCH_REPEATS)]
        order.shuffle(plan)
        plans.append(plan)
    warmup = [case.request for case in inputs.batch_warmup_cases()] * NPROC
    engine = _setup_engine(run, make, warmup)
    spread, probe = _engine_spread(
        seed, run, work, seconds, lambda: _setup_engine(run, make, warmup).close()
    )
    answers: dict[str, str] = {}
    batch_wall = 0.0

    def one_round() -> None:
        nonlocal batch_wall
        for plan in plans:
            responses, elapsed = run.timed(
                lambda: engine.diagnose_batch([case.request for case in plan])
            )
            batch_wall += elapsed
            run.diagnose_busy_s += elapsed
            for case, response in zip(plan, responses):
                run.attempted += 1
                run.diagnose_s.append(response.elapsed_seconds)
                before = run.failed
                run.record_diagnosis(response, case.oracle, case.queries)
                if run.failed > before:
                    continue
                first = answers.setdefault(case.case_id, response.repaired_sql)
                if first != response.repaired_sql:
                    run.fail(f"{case.case_id}: repeats returned different repaired SQL")
            spread.tick()

    try:
        with _tracing(run):
            _rounds(run, seconds, one_round, MIN_ROUNDS["batch-bnb"], spread)
        run.peak_rss_mb = measure.peak_rss_mb()
    finally:
        engine.close()
    run.extra["shards"] = NPROC
    run.extra["batch_wall_s"] = batch_wall
    probe.finish()


# -- the durable session tier ----------------------------------------------------------


class _Server:
    """A durable ``DiagnosisServer`` serving on a thread of this process."""

    def __init__(self, data_dir: Path) -> None:
        from repro.durability.journal import DurabilityConfig
        from repro.server.app import make_server
        from repro.server.client import DiagnosisClient
        from repro.service.engine import DiagnosisEngine

        self.data_dir = data_dir
        self.server = make_server(
            engine=DiagnosisEngine(max_workers=NPROC),
            durability=DurabilityConfig(data_dir=str(data_dir)),
        )
        # A short poll interval lets ``stop`` return at once instead of
        # waiting out the default half second.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.port}"
        self.client = DiagnosisClient(self.url)

    def admin_snapshot(self) -> None:
        request = urllib.request.Request(
            f"{self.url}/v1/admin/snapshot", data=b"{}", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            reply.read()

    def stop(self, *, clean: bool) -> None:
        """Stop serving; ``clean=False`` abandons the store as a crash would."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=60)
        if clean:
            self.server.app.close()


@dataclass
class _Session:
    """The client's own record of one session: every acknowledged write."""

    sid: str
    index: int
    oracle_table: Table
    log: list[tuple[str, str]] = field(default_factory=list)
    complaints: int = 0
    pending_sql: str = ""


class SessionDriver:
    """Drives one session script against a durable server, checking as it goes.

    Every method takes the :class:`Run` its operations count in.
    """

    def __init__(self, script: inputs.SessionScript) -> None:
        self.script = script
        self.databases = [script.database(index) for index in range(len(script.rows))]
        self.tables = [Table.from_database(db) for db in self.databases]

    @staticmethod
    def _op(run: Run, call: Callable[[], Any]) -> tuple[Any, float]:
        run.attempted += 1
        return run.timed(call)

    def open_sessions(self, run: Run, server: _Server) -> list[_Session]:
        sessions = []
        for index, database in enumerate(self.databases):
            sid, _ = self._op(run, lambda: server.client.create_session(database))
            sessions.append(_Session(sid, index, self.tables[index]))
        return sessions

    def cycle(
        self, run: Run, server: _Server, sessions: list[_Session], number: int, *, accept: bool
    ) -> None:
        from repro.core.complaints import Complaint

        client = server.client
        script = self.script
        for position in range(len(script.cycles[0][number].dirty)):
            for session in sessions:
                sql = script.cycles[session.index][number].dirty[position]
                label = f"q{len(session.log) + 1}"
                summary, elapsed = self._op(run, lambda: client.append_sql(session.sid, sql, label=label))
                run.append_s.append(elapsed)
                session.log.append((label, sql))
                if summary.get("queries") != len(session.log):
                    run.fail(f"{session.sid}: append acknowledged {summary.get('queries')} queries")
        for session in sessions:
            new = script.cycles[session.index][number]
            prefix = session.log[: len(session.log) - len(new.dirty)]
            labels = [label for label, _ in session.log[len(prefix):]]
            oracle = CaseOracle(
                session.oracle_table,
                render(prefix + list(zip(labels, new.clean))),
                render(session.log),
            )
            if not oracle.complaints:
                run.fail(f"{session.sid}: cycle {number} produced no complaint")
                continue
            complaints = [Complaint(rid, target) for rid, target in oracle.complaints]
            self._op(run, lambda: client.add_complaints(session.sid, complaints))
            session.complaints = len(complaints)
            response, elapsed = self._op(run, lambda: client.diagnose_session(session.sid))
            run.diagnose_s.append(elapsed)
            run.diagnose_busy_s += elapsed
            before = run.failed
            run.record_diagnosis(response, oracle, len(session.log))
            oracle.close()
            if run.failed > before:
                continue
            session.pending_sql = response.repaired_sql
            if not accept:
                continue
            summary, _ = self._op(run, lambda: client.accept_repair(session.sid))
            session.log = statements(response.repaired_sql)
            session.complaints = 0
            session.pending_sql = ""
            if summary.get("queries") != len(session.log) or summary.get("complaints") != 0:
                run.fail(f"{session.sid}: accept left {summary}")

    def round(self, run: Run, server: _Server, tick: Callable[[], None]) -> None:
        sessions = self.open_sessions(run, server)
        for number in range(len(self.script.cycles[0])):
            self.cycle(run, server, sessions, number, accept=True)
            tick()
        for session in sessions:
            self._op(run, lambda: server.client.delete_session(session.sid))

    def stage_crash(self, run: Run, server: _Server) -> list[_Session]:
        """Sessions opened, a snapshot, then cycle 0 left with complaints and
        a pending repair: the state a crash will find."""
        sessions = self.open_sessions(run, server)
        self._op(run, server.admin_snapshot)
        self.cycle(run, server, sessions, 0, accept=False)
        return sessions

    def verify_recovered(self, run: Run, server: _Server, sessions: list[_Session]) -> list[_Session]:
        """Every acknowledged write reads back equal to the client's record.

        Accepts each recovered pending repair and checks the rows it leaves;
        returns the client's records of the sessions after that.
        """
        after = []
        for session in sessions:
            run.attempted += 1
            current = replace(session, log=list(session.log))
            after.append(current)
            try:
                info = server.client.get_session(session.sid)
                check_same_log(session.log, info["log_sql"])
                if info["complaints"] != session.complaints:
                    raise CheckFailed(f"{info['complaints']} complaints, expected {session.complaints}")
                if info["pending_repair"] != bool(session.pending_sql):
                    raise CheckFailed("pending repair lost")
                if not session.pending_sql:
                    continue
                accepted = server.client.accept_repair(session.sid)
                expected = statements(session.pending_sql)
                check_same_log(expected, accepted["log_sql"])
                current.log, current.complaints, current.pending_sql = expected, 0, ""
                rows = {
                    int(row["rid"]): row["values"]
                    for row in server.client.get_session(session.sid)["rows_data"]
                }
                oracle = CaseOracle(session.oracle_table, session.pending_sql, session.pending_sql, [])
                want = oracle.state(session.pending_sql)
                oracle.close()
                names = session.oracle_table.attributes
                for rid, values in want.items():
                    got = rows.get(rid)
                    if got is None or any(
                        abs(float(got[name]) - value) > 1e-6 for name, value in zip(names, values)
                    ):
                        raise CheckFailed(f"rid {rid} reads back {got}, expected {values}")
                if len(rows) != len(want):
                    raise CheckFailed(f"{len(rows)} rows read back, expected {len(want)}")
            except (CheckFailed, KeyError) as error:
                run.fail(f"recovered {session.sid}: {error}")
        return after


class CrashImage:
    """A durable store abandoned as a crash would leave it, recovered on copies.

    The crash is staged once, before the rounds, on a store of its own: the
    sessions of a script are opened, snapshotted, and given cycle 0, left
    with complaints and a pending repair; then the server is abandoned with
    no final snapshot.  Its operations count in the run, but their samples
    stay out of the metrics.  :meth:`recover` boots a server on a fresh copy
    of the abandoned store (one ``recover_s`` sample) and checks that every
    acknowledged write reads back; every copy holds the same work.
    """

    def __init__(self, run: Run, driver: SessionDriver, path: Path) -> None:
        self.run = run
        self.driver = driver
        self.path = path
        self.copies = 0
        staging = Run(traced=False)
        server = _Server(path)
        try:
            self.sessions = driver.stage_crash(staging, server)
        finally:
            server.stop(clean=False)
        run.count_from(staging)
        self.store_mb = measure.directory_mb(path)

    def recover(self) -> tuple[_Server, Path, list[_Session]]:
        """Recover a copy; return its server, its directory and the sessions
        as the client knows them once their pending repairs are accepted."""
        run = self.run
        copy = self.path.with_name(f"{self.path.name}-copy-{self.copies}")
        self.copies += 1
        run.timed(lambda: shutil.copytree(self.path, copy))
        server, elapsed = run.timed(lambda: _Server(copy))
        run.recover_s.append(elapsed)
        sessions, _ = run.timed(lambda: self.driver.verify_recovered(run, server, self.sessions))
        return server, copy, sessions

    def discard(self, server: _Server, copy: Path) -> None:
        """Abandon a recovered copy: no final snapshot, the directory removed."""
        self.run.timed(lambda: server.stop(clean=False))
        shutil.rmtree(copy, ignore_errors=True)


def session_durable(seed: int, seconds: float, run: Run, work: Path) -> None:
    script = inputs.session_script(seed, **SESSION_SIZE)
    driver = SessionDriver(script)
    image = CrashImage(run, driver, work / "image")
    run.store_mb = image.store_mb
    spread = Spread(seconds)
    recovery: dict[str, Any] = {}

    def setup() -> None:
        data = work / f"setup-{len(run.setup_s)}"
        start = time.perf_counter()
        server = _Server(data)
        for database in driver.databases:
            server.client.create_session(database)
        run.setup_s.append(time.perf_counter() - start)
        server.stop(clean=False)
        shutil.rmtree(data, ignore_errors=True)

    def recover() -> None:
        # Snapshots the recovered copies write are not the run's store's.
        written = run.clock.counters["snapshot_bytes"] if run.clock is not None else 0.0
        server, copy, _ = image.recover()
        snapshot, _ = run.timed(server.client.metrics_snapshot)
        recovery.update(snapshot.get("durability", {}))
        image.discard(server, copy)
        if run.clock is not None:
            run.clock.counters["snapshot_bytes"] = written

    setup()
    if not run.traced:
        spread.add(SETUPS - 1, setup)
    spread.add(RECOVERIES["session-durable"], recover)
    server = _Server(work / "data")
    try:
        with _tracing(run):
            _rounds(
                run, seconds, lambda: driver.round(run, server, spread.tick),
                MIN_ROUNDS["session-durable"], spread,
            )
        before = server.client.metrics_snapshot().get("durability", {})
        run.peak_rss_mb = measure.peak_rss_mb()
    finally:
        server.stop(clean=True)
    counters = {"before_crash": before, "recovery": recovery}
    if run.clock is not None:
        counters["snapshot_bytes"] = run.clock.counters.get("snapshot_bytes", 0.0)
    run.extra.update(_durability_counters(counters))
    run.extra["appends"] = len(run.append_s)


class _Probe:
    """Durable-session side traffic of the workloads that make no appends.

    Every result carries every end-to-end metric, so these workloads
    measure the append, recovery and store metrics on a fixed probe: one
    session of :data:`PROBE_SIZE` whose crash is staged once before the
    rounds (:class:`CrashImage`).  Each of the run's probe points recovers
    two copies of that store (timed and checked), then appends cycle 1 to one
    (timed), files its complaints, diagnoses and accepts the repair.  Every
    point does the same work, and starts with a full garbage collection so
    that collecting the host workload's garbage does not land in its
    samples.  Its operations count in ``attempted`` and
    ``failed``; its diagnoses stay out of the workload's diagnosis samples.
    Traced runs make no probe, so it adds nothing to the per-layer metrics.
    """

    def __init__(self, seed: int, run: Run, work: Path) -> None:
        self.run = run
        self.probe = Run(traced=False)
        if run.traced:
            return
        self.driver = SessionDriver(inputs.session_script(seed, **PROBE_SIZE))
        self.image = CrashImage(self.probe, self.driver, work / "probe")

    def point(self) -> None:
        probe = self.probe
        # The host workload's garbage is not the append path's cost.
        gc.collect()
        self.image.discard(*self.image.recover()[:2])
        server, copy, sessions = self.image.recover()
        try:
            self.driver.cycle(probe, server, sessions, 1, accept=True)
        finally:
            self.image.discard(server, copy)

    def finish(self) -> None:
        if self.run.traced:
            return
        probe, run = self.probe, self.run
        run.count_from(probe)
        run.append_s = probe.append_s
        run.recover_s = probe.recover_s
        run.store_mb = self.image.store_mb
        run.peak_rss_mb = max(run.peak_rss_mb, measure.peak_rss_mb())


def _durability_counters(counters: dict[str, Any]) -> dict[str, float]:
    before = counters.get("before_crash", {})
    recovery = counters.get("recovery", {}).get("recovery", {})
    return {
        "wal_records": float(before.get("wal", {}).get("records_appended", 0)),
        "wal_bytes": float(before.get("wal", {}).get("bytes_appended", 0)),
        "fsyncs": float(before.get("fsync", {}).get("count", 0)),
        "snapshots": float(before.get("snapshots", {}).get("taken", 0)),
        "recovered_records": float(recovery.get("replayed_records", 0)),
        "snapshot_bytes": float(counters.get("snapshot_bytes", 0.0)),
    }


def _tracing(run: Run) -> Any:
    return run.clock if run.clock is not None else contextlib.nullcontext()


WORKLOADS: dict[str, Callable[[int, float, Run, Path], None]] = {
    "request-mix": request_mix,
    "long-history": long_history,
    "batch-bnb": batch_bnb,
    "session-durable": session_durable,
}
