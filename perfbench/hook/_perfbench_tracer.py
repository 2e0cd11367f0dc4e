"""Span recorder installed into every traced ``repro`` process.

Activated by ``sitecustomize`` (same directory) when the environment
variable ``PERFBENCH_TRACE_DIR`` names a directory.  It imports the
``repro`` layers, wraps their public entry points and records one span
per call: name, start, duration, process, thread and parent.  Nothing in
``src/`` changes; the wrappers replace module attributes and class
methods in this process only.

Spans stay in memory.  Each process writes one JSON document,
``spans-<pid>.json``, when it exits (``atexit`` for the main process,
a ``multiprocessing`` finalizer for forked pool workers).  The document
holds per-name aggregates (calls, total time, and the time of named
descendant spans, for self-time) plus counters and a bounded list of
Chrome trace events.
"""

from __future__ import annotations

import atexit
import functools
import json
import multiprocessing.util as mp_util
import os
import sys
import threading
from time import perf_counter_ns

#: Chrome trace events kept per span name and process; aggregates count
#: every call regardless.
EVENTS_PER_NAME = 400


class Recorder:
    """In-memory span and counter store of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self.aggregates = {}  # name -> [calls, total_ns, {descendant: ns}]
        self.counters = {}
        self.maxima = {}
        self.samples = {}  # name -> list of values (e.g. per-request spans)
        self.events = []
        self.event_counts = {}
        self.dropped_events = 0
        self.next_id = 1
        self.import_ns = None

    # -- recording ------------------------------------------------------ #
    def stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name):
        """Open a span; returns the frame, or ``None`` for a nested repeat."""
        stack = self.stack()
        for frame in stack:
            if frame[0] == name:
                return None  # recursion: the outer span already covers it
        with self._lock:
            span_id = self.next_id
            self.next_id += 1
        frame = [name, perf_counter_ns(), span_id]
        stack.append(frame)
        return frame

    def leave(self, frame, args=None):
        end = perf_counter_ns()
        stack = self.stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit (generator closed late)
            if frame in stack:
                stack.remove(frame)
        name, start, span_id = frame
        duration = end - start
        span_args = {"id": span_id, "parent": stack[-1][2] if stack else 0}
        if args:
            span_args.update(args)
        self.record(name, start, duration, span_args, ancestors=[f[0] for f in stack])
        return duration

    def record(self, name, start, duration, args, ancestors=()):
        """Store one finished span (aggregate, descendant time, event)."""
        with self._lock:
            entry = self.aggregates.get(name)
            if entry is None:
                entry = self.aggregates[name] = [0, 0, {}]
            entry[0] += 1
            entry[1] += duration
            for ancestor in ancestors:
                desc = self.aggregates.setdefault(ancestor, [0, 0, {}])[2]
                desc[name] = desc.get(name, 0) + duration
            seen = self.event_counts.get(name, 0)
            if seen >= EVENTS_PER_NAME:
                self.dropped_events += 1
                return
            self.event_counts[name] = seen + 1
            self.events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": start / 1000.0,
                    "dur": duration / 1000.0,
                    "pid": self.pid,
                    "tid": threading.get_ident(),
                    "args": args,
                }
            )

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def sample(self, name, value):
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    # -- output --------------------------------------------------------- #
    def flush(self):
        """Write this process's document (idempotent: rewrites the file)."""
        with self._lock:
            document = {
                "pid": self.pid,
                "argv": list(sys.argv),
                "import_ns": self.import_ns,
                "aggregates": {
                    name: {"calls": c, "total_ns": t, "descendants": dict(d)}
                    for name, (c, t, d) in self.aggregates.items()
                },
                "counters": dict(self.counters),
                "maxima": dict(self.maxima),
                "samples": {name: list(v) for name, v in self.samples.items()},
                "events": list(self.events),
                "dropped_events": self.dropped_events,
            }
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)

    def after_fork_in_child(self):
        self._lock = threading.Lock()
        self._reset()


def _span(recorder, name, fn, on_exit=None):
    """Wrap ``fn`` so each call records a span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.enter(name)
        if frame is None:
            return fn(*args, **kwargs)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            extra = on_exit(args, kwargs, result) if on_exit is not None else None
            recorder.leave(frame, extra)

    return wrapper


def _generator_span(recorder, name, fn):
    """Wrap a generator function, timing only the generator's own steps."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        recorder.count(name + ".calls")
        while True:
            frame = recorder.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                if frame is not None:
                    recorder.leave(frame)
            yield item

    return wrapper


def _rebind(module_prefix, original, replacement):
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (covers ``from x import f`` copies)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith(module_prefix):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(recorder, module, attr, name, on_exit=None, generator=False):
    original = getattr(module, attr)
    if generator:
        wrapped = _generator_span(recorder, name, original)
    else:
        wrapped = _span(recorder, name, original, on_exit)
    setattr(module, attr, wrapped)
    _rebind("repro", original, wrapped)


def _patch_method(recorder, cls, attr, name, on_exit=None, static=False):
    original = cls.__dict__[attr]
    if static:
        setattr(cls, attr, staticmethod(_span(recorder, name, original.__func__, on_exit)))
    else:
        setattr(cls, attr, _span(recorder, name, original, on_exit))


def install(out_dir):
    """Import the ``repro`` layers and wrap their entry points."""
    recorder = Recorder(out_dir)
    started = perf_counter_ns()
    import repro.cli  # noqa: F401 - the import being timed

    recorder.import_ns = perf_counter_ns() - started

    import repro.analysis.enumeration as enumeration
    import repro.analysis.game as game
    import repro.batchsim.engine as batch_engine
    import repro.campaign.executor as executor
    import repro.experiments as experiments
    import repro.modelcheck.checker as checker
    import repro.modelcheck.vector as vector
    import repro.runs.cache as cache
    import repro.service.events as events
    import repro.service.metrics as metrics
    import repro.service.queue as queue
    import repro.service.server as server
    import repro.simulator.branching as branching
    import repro.simulator.engine as sim_engine

    runs_execute = sys.modules["repro.runs.execute"]

    # cli, runs
    _patch_function(recorder, repro.cli, "main", "cli.main")
    _patch_function(recorder, runs_execute, "execute", "runs.execute")

    def _cache_get_exit(args, kwargs, result):
        recorder.count("runs.cache.hits" if result is not None else "runs.cache.misses")

    _patch_method(recorder, cache.ResultCache, "get", "runs.cache.get", _cache_get_exit)
    _patch_method(recorder, cache.ResultCache, "put", "runs.cache.put")

    # campaign
    def _campaign_exit(args, kwargs, result):
        records = getattr(result, "records", None)
        if records is not None:
            recorder.count("campaign.units", len(records))

    _patch_function(recorder, executor, "run_campaign", "campaign.run_campaign", _campaign_exit)
    _patch_function(recorder, executor, "execute_unit", "campaign.unit")
    _patch_function(recorder, executor, "execute_batch", "campaign.unit")

    # modelcheck
    def _check_exit(args, kwargs, result):
        if result is not None:
            recorder.count("modelcheck.cells")
            recorder.count("modelcheck.states", int(result.num_states))
            recorder.count("modelcheck.transitions", int(result.num_transitions))

    _patch_method(recorder, checker.ModelChecker, "run", "modelcheck.run", _check_exit)
    _patch_function(recorder, vector, "canonical_many", "modelcheck.vector.canonical_many")
    _patch_function(recorder, vector, "advance_clear_many", "modelcheck.vector.advance_clear_many")

    def _supports_exit(args, kwargs, result):
        if result is False:
            recorder.count("modelcheck.vector_fallback_cells")

    _patch_method(
        recorder, vector.VectorFrontierExplorer, "supports_cell",
        "modelcheck.vector.supports_cell", _supports_exit, static=True,
    )

    # simulator, batchsim
    _patch_method(
        recorder, branching.BranchingDriver, "successors_compact",
        "simulator.branching.successors_compact",
    )
    _patch_method(recorder, sim_engine.Simulator, "run", "simulator.engine.run")

    def _batch_exit(args, kwargs, result):
        recorder.count("batchsim.lanes", int(args[0].num_lanes))

    _patch_method(recorder, batch_engine.BatchEngine, "run", "batchsim.run", _batch_exit)

    # analysis
    def _game_exit(args, kwargs, result):
        if result is not None:
            recorder.count("analysis.game.candidates", int(result.algorithms_checked))

    _patch_function(
        recorder, game, "searching_game_verdict", "analysis.game.solve", _game_exit
    )
    _patch_function(
        recorder, enumeration, "iter_configurations",
        "analysis.enumeration.iter_configurations", generator=True,
    )

    # experiments: the registry is looked up at call time
    for exp_name, run in list(experiments.EXPERIMENTS.items()):
        experiments.EXPERIMENTS[exp_name] = _span(recorder, f"experiments.{exp_name}", run)

    # service
    handler = server.RunRequestHandler
    original_parse = handler.parse_request

    def parse_request(self):
        # The request line has been read: handling starts here (the
        # keep-alive wait for the next request is not server time).
        self._perfbench_started = perf_counter_ns()
        return original_parse(self)

    handler.parse_request = parse_request
    original_handle = handler.__dict__["handle_one_request"]

    def handle_one_request(self):
        self._perfbench_started = None
        original_handle(self)
        started = self._perfbench_started
        if started is None:
            return  # connection closed while waiting for a request
        duration = perf_counter_ns() - started
        headers = getattr(self, "headers", None)
        op = headers.get("X-Bench-Op") if headers is not None else None
        recorder.sample("service.http.handle", [op, duration])
        recorder.record(
            "service.http.handle", started, duration,
            {"op": op, "method": self.command, "path": self.path},
        )

    handler.handle_one_request = handle_one_request
    _patch_method(recorder, server.RunService, "submit", "service.submit")
    _patch_method(recorder, metrics.MetricsRegistry, "render", "service.metrics.render")

    def _publish_exit(args, kwargs, result):
        recorder.count("service.events.published")

    _patch_method(recorder, events.EventBroker, "publish", "service.events.publish", _publish_exit)

    submitted = {}
    original_submit = queue.JobQueue.submit
    original_pop = queue.JobQueue.pop

    def queue_submit(self, run_id, *args, **kwargs):
        job = original_submit(self, run_id, *args, **kwargs)
        submitted.setdefault(run_id, perf_counter_ns())
        recorder.maximum("service.queue.depth_max", self.depth)
        return job

    def queue_pop(self, *args, **kwargs):
        job = original_pop(self, *args, **kwargs)
        if job is not None:
            enqueued = submitted.pop(job.run_id, None)
            if enqueued is not None:
                recorder.sample("service.queue.wait", perf_counter_ns() - enqueued)
        return job

    queue.JobQueue.submit = queue_submit
    queue.JobQueue.pop = queue_pop

    # Output: main process at exit, forked pool workers via the
    # multiprocessing finalizer that runs before their os._exit().
    atexit.register(recorder.flush)

    def _in_child(_recorder):
        _recorder.after_fork_in_child()
        mp_util.Finalize(None, _recorder.flush, exitpriority=100)

    global RECORDER
    RECORDER = recorder  # register_after_fork holds its object weakly
    os.register_at_fork(after_in_child=recorder.after_fork_in_child)
    mp_util.register_after_fork(recorder, _in_child)
    return recorder


RECORDER = None
