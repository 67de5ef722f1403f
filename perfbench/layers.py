"""Per-layer self time for the traced run, recorded from the benchmark's side.

The program is not changed: :class:`LayerClock` wraps public functions of
each layer's module while a traced run lasts and restores them afterwards.
A layer's *self* time is its calls' duration minus the part covered by
wrapped calls they made (on the same thread), so the self times of all
layers plus the unattributed rest add up to the traced wall time.

Which functions stand for which layer is the table :data:`LAYERS`; layers
named by the program's modules (``core``, ``milp``, ``queries``, ...).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: ``(layer, module, qualified name)``: the functions whose self time is
#: charged to ``layer``.  ``Class.method`` names patch the class attribute;
#: plain names patch the defining module and every ``repro`` module that
#: imported the same function by name.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("service.fingerprint", "repro.service.engine", "diagnosis_fingerprint"),
    ("service.response", "repro.service.types", "DiagnosisResponse.from_result"),
    ("core.encode", "repro.core.encoder", "LogEncoder.encode"),
    ("core.refine", "repro.core.refinement", "refine_repair"),
    ("core.slicing", "repro.core.slicing", "relevant_queries"),
    ("core.slicing", "repro.core.slicing", "relevant_attributes"),
    ("core.slicing", "repro.core.slicing", "all_full_impacts"),
    ("core.compact", "repro.core.slicing", "compact_log"),
    ("core.finalize", "repro.core.repair", "build_repair_result"),
    ("milp.presolve", "repro.milp.presolve", "presolve"),
    ("milp.highs", "repro.milp.solvers.scipy_backend", "HighsSolver.solve"),
    ("milp.native", "scipy.optimize", "milp"),
    ("milp.decompose", "repro.milp.decompose", "DecomposingSolver.solve"),
    ("queries.replay", "repro.queries.executor", "replay"),
    ("db.snapshot", "repro.db.database", "Database.snapshot"),
    ("sql.parse", "repro.sql.parser", "parse_query"),
    ("sql.parse", "repro.sql.parser", "parse_script"),
    ("server.dispatch", "repro.server.app", "DiagnosisApp.dispatch"),
    ("durability.wal_append", "repro.durability.wal", "WriteAheadLog.append"),
    ("durability.snapshot", "repro.durability.journal", "SessionJournal.snapshot_shard"),
    ("durability.recover_replay", "repro.durability.journal", "SessionJournal.recover"),
)

#: ``apply_query`` is charged to ``queries.apply`` only where it is called
#: directly (session appends); inside ``replay`` it stays part of the replay.
APPLY = ("queries.apply", "repro.queries.executor", "apply_query")


class LayerClock:
    """Thread-aware self-time accounting over wrapped functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.inclusive_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[Callable[[], None]] = []

    # -- accounting ----------------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, function: Callable[..., Any]) -> Callable[..., Any]:
        clock = self

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = clock._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with clock._lock:
                    clock.self_seconds[layer] += elapsed - children
                    clock.inclusive_seconds[layer] += elapsed
                    clock.calls[layer] += 1

        return timed

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- patching ------------------------------------------------------------------

    def _patch_attribute(self, owner: Any, name: str, value: Any) -> None:
        original = inspect.getattr_static(owner, name)
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, original))

    def install(self, layer: str, module_name: str, qualname: str) -> None:
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, method = qualname.split(".")
            owner = getattr(module, class_name)
            raw = inspect.getattr_static(owner, method)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.wrap(layer, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(layer, raw.__func__))
            else:
                wrapped = self.wrap(layer, raw)
            self._patch_attribute(owner, method, wrapped)
            return
        self._rebind(module, qualname, layer, include_home=True)

    def _rebind(self, module: Any, name: str, layer: str, *, include_home: bool) -> None:
        original = getattr(module, name)
        wrapped = self.wrap(layer, original)
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", "")
            if other is module and not include_home:
                continue
            if other is not module and not other_name.startswith("repro"):
                continue
            if getattr(other, name, None) is original:
                self._patch_attribute(other, name, wrapped)

    def install_all(self) -> None:
        for layer, module_name, qualname in LAYERS:
            self.install(layer, module_name, qualname)
        layer, module_name, name = APPLY
        self._rebind(importlib.import_module(module_name), name, layer, include_home=False)
        self._install_counters()

    def _install_counters(self) -> None:
        """Counts no layer reports itself: rows copied, bytes, HTTP time."""
        from repro.db.table import Table
        from repro.durability import snapshot
        from repro.server.client import DiagnosisClient

        clock = self
        copy_table = Table.copy
        write_snapshot = snapshot.write_snapshot
        http_request = DiagnosisClient._request

        @functools.wraps(copy_table)
        def copy(table: Any) -> Any:
            clock.count("rows_copied", len(table))
            return copy_table(table)

        @functools.wraps(write_snapshot)
        def write(*args: Any, **kwargs: Any) -> Any:
            path = write_snapshot(*args, **kwargs)
            clock.count("snapshot_bytes", os.path.getsize(path))
            return path

        @functools.wraps(http_request)
        def request(client: Any, method: str, path: str, **kwargs: Any) -> Any:
            body = kwargs.get("body")
            if method in ("POST", "PUT") and body:
                clock.count("user_bytes", len(body))
            start = time.perf_counter()
            try:
                return http_request(client, method, path, **kwargs)
            finally:
                clock.count("http_seconds", time.perf_counter() - start)
                clock.count("http_requests")

        self._patch_attribute(Table, "copy", copy)
        self._patch_attribute(DiagnosisClient, "_request", request)
        for module in list(sys.modules.values()):
            if getattr(module, "write_snapshot", None) is write_snapshot:
                self._patch_attribute(module, "write_snapshot", write)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerClock":
        self.install_all()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
