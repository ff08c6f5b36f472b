"""Per-layer instrumentation for the traced run.

Nothing here edits the program: :func:`instrument` wraps the public
entry points of each layer from outside, for the duration of a ``with``
block, and installs the program's own recording tracer
(:class:`repro.obs.trace.Tracer`) so the fit's stage spans land too.
Fit stages are wrapped at the names :mod:`repro.core.pipeline` imports
them under, so only the fit's calls are timed.  Busy seconds are summed
across threads; every wrapped function also counts its calls.

:class:`CountingLLM` is the LLM layer's probe.  It is used in every run
(untraced too), because the token recount it keeps is a correctness
check, not a measurement.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from checks import recount_tokens
from repro.llm.client import LLMClient, LLMRequest, LLMResponse

#: Fit stages wrapped at their ``repro.core.pipeline`` import names.
FIT_STAGES = {
    "compute_all_stats": "core.stats",
    "correlated_attributes": "core.correlation",
    "generate_initial_criteria": "core.criteria",
    "FeatureSpace": "core.features",
    "sample_representatives": "core.sampling",
    "build_guideline": "core.guidelines",
    "label_representatives": "core.labeling",
    "verify_attribute": "core.verify_busy",
    "assemble_training_data": "core.assemble_busy",
}


class CountingLLM(LLMClient):
    """Pass-through client that counts calls, busy time and tokens.

    Shares the inner client's ledger, so the fit's accounting is the
    inner client's own; the counts kept here are recomputed from the
    prompt and reply texts with :func:`checks.recount_tokens`.
    """

    def __init__(self, inner: LLMClient) -> None:
        super().__init__()
        self.inner = inner
        self.ledger = inner.ledger
        self._lock = threading.Lock()
        self.calls = 0
        self.busy_s = 0.0
        self.input_tokens = 0
        self.output_tokens = 0

    @property
    def model_name(self) -> str:
        return self.inner.model_name

    def complete(self, request: LLMRequest) -> LLMResponse:
        t0 = time.perf_counter()
        response = self.inner.complete(request)
        seconds = time.perf_counter() - t0
        n_in = recount_tokens(request.prompt)
        n_out = recount_tokens(response.text)
        with self._lock:
            self.calls += 1
            self.busy_s += seconds
            self.input_tokens += n_in
            self.output_tokens += n_out
        return response

    def _complete(self, request: LLMRequest) -> LLMResponse:
        return self.inner.complete(request)


class Probe:
    """Thread-safe busy-second and call-count accumulator, by layer name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)

    def add(self, name: str, seconds: float, calls: int = 1, rows: int = 0) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += calls
            self.rows[name] += rows

    def snapshot(self) -> "Probe":
        copy = Probe()
        with self._lock:
            copy.seconds.update(self.seconds)
            copy.calls.update(self.calls)
            copy.rows.update(self.rows)
        return copy

    def since(self, before: "Probe") -> "Probe":
        """What was recorded after ``before`` was snapshotted."""
        now, delta = self.snapshot(), Probe()
        for field in ("seconds", "calls", "rows"):
            old = getattr(before, field)
            getattr(delta, field).update(
                {k: v - old.get(k, 0) for k, v in getattr(now, field).items()}
            )
        return delta

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - t0)

        return wrapper

    def timed_iter(self, name: str, fn):
        """Wrap a generator function, timing only the work inside it."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self.add(name, time.perf_counter() - t0, calls=0)
                    return
                self.add(name, time.perf_counter() - t0)
                yield item

        return wrapper

    def attr_map(self, fn):
        """Wrap ``parallel_attr_map``: wall per call, busy per attribute."""

        def wrapper(task, attrs, *args, **kwargs):
            def timed_task(attr):
                t0 = time.perf_counter()
                try:
                    return task(attr)
                finally:
                    self.add("parallel.attr_map_busy", time.perf_counter() - t0)

            t0 = time.perf_counter()
            try:
                return fn(timed_task, attrs, *args, **kwargs)
            finally:
                self.add("parallel.attr_map_wall", time.perf_counter() - t0)

        return wrapper

    def score_table(self, fn):
        """Wrap ``BatchScorer.score_table``: its featurize/predict stages."""

        def wrapper(scorer, table, *args, **kwargs):
            result = fn(scorer, table, *args, **kwargs)
            stages = {s.name: s.seconds for s in result.stages}
            self.add("scorer.featurize", stages.get("featurize", 0.0))
            self.add("scorer.predict", stages.get("predict", 0.0),
                     rows=table.n_rows)
            return result

        return wrapper


@contextmanager
def instrument(probe: Probe):
    """Wrap every layer's entry points and record the program's spans."""
    from repro.core import pipeline
    from repro.core.detector import ErrorDetector
    from repro.ml.mlp import MLPClassifier
    from repro.obs import trace
    from repro.serving import streaming
    from repro.serving.scorer import BatchScorer

    saved = []

    def patch(owner, attr, new) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for attr, name in FIT_STAGES.items():
        patch(pipeline, attr, probe.timed(name, getattr(pipeline, attr)))
    patch(pipeline, "parallel_attr_map", probe.attr_map(pipeline.parallel_attr_map))
    patch(ErrorDetector, "fit", probe.timed("core.train_detector", ErrorDetector.fit))
    patch(MLPClassifier, "fit", probe.timed("ml.mlp_fit", MLPClassifier.fit))
    patch(MLPClassifier, "predict_proba",
          probe.timed("ml.mlp_predict", MLPClassifier.predict_proba))
    patch(streaming, "iter_csv_chunks",
          probe.timed_iter("data.csv_read", streaming.iter_csv_chunks))
    patch(BatchScorer, "score_table", probe.score_table(BatchScorer.score_table))
    tracer = trace.Tracer(name="perfbench")
    previous = trace.set_tracer(tracer)
    try:
        yield tracer
    finally:
        trace.set_tracer(previous)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
