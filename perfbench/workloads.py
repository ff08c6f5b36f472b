"""The benchmark's three workloads.

Each workload function takes a :class:`Run` and returns a
:class:`Outcome`: the end-to-end metrics, the per-layer metrics of a
traced run, and the operations attempted and failed.  Every output of
the program is checked against :mod:`checks`; a disagreement raises
:class:`checks.CheckFailed`.

Data seed and replay seed are separate.  The tables are generated with
``DATA_SEED`` (the fit, its token spend and its in-sample F1 do not
depend on ``--seed``); ``--seed`` decides which held-out rows are
streamed or served, in which order, and which rows the row-independence
check re-scores.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from checks import (
    check_beats_flag_all,
    count_csv_rows,
    mask_from_file,
    mask_sha256,
    metric_sum,
    parse_prometheus,
    percentile,
    prf,
    require,
    schema_fingerprint,
)
from layers import CountingLLM, Probe
from procs import Server, request, run_job
from repro.config import ZeroEDConfig
from repro.core.pipeline import ZeroED
from repro.data.csvio import write_csv
from repro.data.registry import get_dataset
from repro.llm.profiles import get_profile
from repro.llm.simulated.engine import SimulatedLLM
from repro.serving.scorer import BatchScorer

DATA_SEED = 0
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3
#: Held-out rows re-scored in-process by the row-independence check.
RESCORE_ROWS = 500


@dataclasses.dataclass
class Run:
    seed: int
    seconds: float
    traced: bool
    tmp: Path
    probe: Probe | None = None
    tracer: object = None
    log: list = dataclasses.field(default_factory=list)

    def note(self, text: str) -> None:
        self.log.append(text)


@dataclasses.dataclass
class Outcome:
    metrics: dict
    layers: dict
    attempted: int
    failed: int


# --- shared pieces ---------------------------------------------------------
def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def _generate(name: str, n_rows: int):
    return _timed(get_dataset(name).make, n_rows=n_rows, seed=DATA_SEED)


class Fit:
    """One checked ``ZeroED.fit`` with a counting LLM client."""

    def __init__(self, table, config: ZeroEDConfig) -> None:
        self.llm = CountingLLM(
            SimulatedLLM(profile=get_profile(config.llm_model), seed=config.seed)
        )
        self.fitted, self.seconds = _timed(ZeroED(config, llm=self.llm).fit, table)
        self.ledger = dict(self.fitted.ledger_summary)
        self.details = self.fitted.details
        self._check(table.n_rows)

    def _check(self, n_rows: int) -> None:
        name = self.fitted.table.name
        ledger, llm = self.ledger, self.llm
        require(llm.calls == ledger["requests"],
                f"{name}: {llm.calls} LLM calls counted, ledger says {ledger['requests']}")
        require(llm.input_tokens == ledger["input_tokens"]
                and llm.output_tokens == ledger["output_tokens"],
                f"{name}: recounted tokens {llm.input_tokens}/{llm.output_tokens} "
                f"!= ledger {ledger['input_tokens']}/{ledger['output_tokens']}")
        require(not self.details.get("degraded_attrs"),
                f"{name}: degraded attributes {self.details.get('degraded_attrs')}")
        # The exact engine labels one representative per cluster.  The
        # fast engine clusters distinct feature rows and labels each one
        # when an attribute has fewer of them than the budget, so there
        # the count may fall short of it but never exceed it.
        k = self.fitted.config.clusters_for(n_rows)
        counts = self.details["n_sampled"]
        if self.details["engines"]["sampling"] == "exact":
            wrong = {a: n for a, n in counts.items() if n != k}
        else:
            wrong = {a: n for a, n in counts.items() if not 1 <= n <= k}
        require(not wrong, f"{name}: labeled representatives {wrong}, expected {k} each")
        self.short = {a: n for a, n in counts.items() if n < k}

    def in_sample_mask(self) -> np.ndarray:
        return self.fitted.score(self.fitted.table).mask.matrix

    @property
    def tokens(self) -> int:
        return self.ledger["input_tokens"] + self.ledger["output_tokens"]

    def layer_counts(self) -> dict:
        """LLM and label-survival counts, read before the fit is dropped."""
        training = self.details["training"].values()
        propagated = sum(t["propagated"] for t in training)
        removed = sum(t["removed"] for t in training)
        resilience = self.details.get("resilience") or {}
        return {
            "llm.calls": self.llm.calls,
            "llm.busy_s": self.llm.busy_s,
            "llm.input_tokens": self.llm.input_tokens,
            "llm.output_tokens": self.llm.output_tokens,
            "llm.attempts": resilience.get("attempts", self.llm.calls),
            "labels.propagated": propagated,
            "labels.kept": propagated - removed,
        }

    def drop(self) -> None:
        """Release the fitted model (hundreds of MB) before timing starts."""
        self.fitted = None


def _pooled_f1(pairs) -> float:
    """F1 over the union of (pred, truth) cell sets of different shapes."""
    pred = np.concatenate([np.ravel(p) for p, _ in pairs])
    truth = np.concatenate([np.ravel(t) for _, t in pairs])
    return prf(pred, truth)[2]


def _fit_layers(run: Run, fits: list[Fit]) -> dict:
    """core / llm / ml / parallel metrics of a traced run's fits."""
    p, tracer = run.probe, run.tracer
    out = {f"{name}_s": p.seconds.get(name, 0.0) for name in (
        "core.stats", "core.correlation", "core.criteria", "core.features",
        "core.sampling", "core.guidelines", "core.labeling",
        "core.verify_busy", "core.assemble_busy", "core.train_detector",
    )}
    out["core.training_data_s"] = sum(s.seconds for s in tracer.spans_named("training_data"))
    for name in ("core.sampling", "core.guidelines", "core.labeling",
                 "core.verify_busy", "core.assemble_busy"):
        out[name.replace("_busy", "") + "_calls"] = p.calls.get(name, 0)
    counts = [f.layer_counts() for f in fits]
    total = {k: sum(c[k] for c in counts) for k in counts[0]}
    out["core.labels_kept"] = total["labels.kept"] / max(1, total["labels.propagated"])
    out["llm.calls"] = total["llm.calls"]
    out["llm.busy_s"] = total["llm.busy_s"]
    out["llm.input_tokens"] = total["llm.input_tokens"]
    out["llm.output_tokens"] = total["llm.output_tokens"]
    out["llm.attempts_per_call"] = total["llm.attempts"] / max(1, total["llm.calls"])
    out["ml.mlp_fit_s"] = p.seconds.get("ml.mlp_fit", 0.0)
    out["ml.mlp_fit_calls"] = p.calls.get("ml.mlp_fit", 0)
    out["parallel.attr_map_wall_s"] = p.seconds.get("parallel.attr_map_wall", 0.0)
    out["parallel.attr_map_busy_s"] = p.seconds.get("parallel.attr_map_busy", 0.0)
    return out


def _scorer_layers(p: Probe) -> dict:
    calls = p.calls.get("scorer.predict", 0)
    return {
        "ml.mlp_predict_s": p.seconds.get("ml.mlp_predict", 0.0),
        "scorer.featurize_s": p.seconds.get("scorer.featurize", 0.0),
        "scorer.predict_s": p.seconds.get("scorer.predict", 0.0),
        "scorer.calls": calls,
        "scorer.rows_per_call": p.rows.get("scorer.predict", 0) / max(1, calls),
    }


def _save(fit: Fit, path: Path) -> float:
    """Save the fit's artifact (replacing an earlier copy): seconds."""
    if path.exists():
        shutil.rmtree(path)
    return _timed(fit.fitted.save, path)[1]


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _load_scorer(path: Path) -> tuple[BatchScorer, float]:
    return _timed(BatchScorer.from_artifact, path)


def _check_rescored(scorer: BatchScorer, rows: list[dict], expected: np.ndarray, what: str) -> None:
    """Row independence: a fresh in-process batch gives the same flags."""
    got = scorer.score_rows(rows).mask.matrix
    diff = int(np.count_nonzero(got != expected))
    require(diff == 0, f"{what}: {diff} cells differ when {len(rows)} rows are re-scored in-process")


# --- tax_bulk --------------------------------------------------------------
TAX_FIT_ROWS = 2_500
TAX_HELD_ROWS = 10_000
TAX_CHUNK_ROWS = 2_500
TAX_JOBS = 2


def tax_bulk(run: Run) -> Outcome:
    rng = np.random.default_rng(run.seed)
    order = rng.permutation(TAX_HELD_ROWS)
    csv_path = run.tmp / "heldout.csv"
    gen_s, csv_s = [], []
    for _ in range(SETUP_REPS):
        data, seconds = _generate("tax", TAX_FIT_ROWS + TAX_HELD_ROWS)
        gen_s.append(seconds)
        held = data.dirty.select_rows(TAX_FIT_ROWS + order)
        csv_s.append(_timed(write_csv, held, csv_path)[1])
    truth = data.mask.matrix
    held_truth = truth[TAX_FIT_ROWS + order]

    config = ZeroEDConfig(sampling_engine="auto", detector_engine="auto", n_jobs=TAX_JOBS)
    fit = Fit(data.dirty.head(TAX_FIT_ROWS), config)
    require(fit.details["engines"] == {"sampling": "fast", "detector": "fast"},
            f"tax fit resolved engines {fit.details['engines']}, expected fast")
    _, _, f1 = check_beats_flag_all(fit.in_sample_mask(), truth[:TAX_FIT_ROWS], "tax in-sample")
    art = run.tmp / "tax-artifact"
    save_s = [_save(fit, art) for _ in range(SETUP_REPS)]
    setup_s = statistics.median(gen_s) + statistics.median(csv_s) + statistics.median(save_s)
    fit.drop()
    del data
    gc.collect()

    # Timed phase: whole score-csv jobs until --seconds have passed.
    n_rows = count_csv_rows(csv_path)
    require(n_rows == TAX_HELD_ROWS, f"held-out CSV has {n_rows} rows, wrote {TAX_HELD_ROWS}")
    walls, rss, shard_s, shas = [], [], [], set()
    streamed = None
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < run.seconds:
        k = len(walls)
        mask_path, manifest_path = run.tmp / f"mask-{k}.json", run.tmp / f"manifest-{k}.json"
        wall, peak = run_job(
            ["score-csv", str(csv_path), "--artifact", str(art),
             "--jobs", str(TAX_JOBS), "--chunk-rows", str(TAX_CHUNK_ROWS),
             "--manifest-out", str(manifest_path), "--mask-out", str(mask_path)],
            run.tmp / f"score-{k}.log",
        )
        walls.append(wall)
        rss.append(peak)
        attrs, mask = mask_from_file(mask_path)
        manifest = json.loads(manifest_path.read_text())
        require(mask.shape[0] == n_rows,
                f"streamed mask has {mask.shape[0]} rows, the CSV {n_rows}")
        sha = mask_sha256(mask)
        require(sha == manifest["mask_sha256"],
                f"streamed mask SHA-256 {sha} != manifest {manifest['mask_sha256']}")
        shas.add(sha)
        shard_s.extend(s["seconds"] for s in manifest["shards"])
        streamed = mask
        mask_path.unlink()
    require(len(shas) == 1, f"{len(shas)} different masks from identical score-csv jobs")

    _, _, heldout_f1 = check_beats_flag_all(streamed, held_truth, "tax held-out (streamed)")
    scorer, load_s = _load_scorer(art)
    layers = {}
    if run.traced:
        layers.update(_fit_layers(run, [fit]))
        # The child process is not traced: replay the same stream in-process.
        before = run.probe.snapshot()
        result = scorer.score_csv(csv_path, chunk_rows=TAX_CHUNK_ROWS, n_jobs=TAX_JOBS)
        require(mask_sha256(result.mask.matrix) == next(iter(shas)),
                "in-process stream differs from the score-csv mask")
        layers.update(_scorer_layers(run.probe.since(before)))
        layers["streaming.shards"] = len(result.shards)
        layers["streaming.shard_p50_s"] = statistics.median(s.seconds for s in result.shards)
        layers["data.csv_read_s"] = run.probe.seconds.get("data.csv_read", 0.0)
    require(attrs == held.attributes, f"streamed mask schema {attrs} != {held.attributes}")
    pick = np.random.default_rng(run.seed + 1).choice(n_rows, RESCORE_ROWS, replace=False)
    _check_rescored(scorer, [held.row(int(i)) for i in pick], streamed[pick], "tax held-out")
    total_rows = n_rows * len(walls)
    run.note(f"tax_bulk: {len(walls)} score-csv job(s) of {n_rows} rows, "
             f"{len(shard_s)} shards; fit {fit.seconds:.2f}s; attributes labeled "
             f"below the {TAX_FIT_ROWS}-row budget: {fit.short}")
    metrics = {
        "setup_s": setup_s,
        "fit_s": fit.seconds,
        "llm_tokens": fit.tokens,
        "llm_requests": fit.ledger["requests"],
        "f1": f1,
        "heldout_f1": heldout_f1,
        "rows_per_s": total_rows / sum(walls),
        "lat_p50_ms.small": 1000 * statistics.median(shard_s),
        "lat_p50_ms.large": 1000 * statistics.median(walls),
        "peak_rss_mb": max(rss),
    }
    layers.update({
        "data.generate_s": statistics.median(gen_s),
        "data.csv_write_s": statistics.median(csv_s),
        "artifact.save_s": statistics.median(save_s),
        "artifact.load_s": load_s,
        "artifact.bytes": _dir_bytes(art),
    })
    return Outcome(metrics, layers, attempted=total_rows, failed=0)


# --- HTTP workloads ----------------------------------------------------------
#: Upper end of each client's seeded think time between requests.
THINK_MAX_S = 0.010


class Request:
    """One pre-encoded ``POST /score`` body and the held-out rows it carries."""

    def __init__(self, rows: list[dict], row_ids: np.ndarray, dataset: str | None = None):
        payload = {"rows": rows}
        if dataset is not None:
            payload["dataset"] = dataset
        self.body = json.dumps(payload).encode()
        self.rows = rows
        self.row_ids = row_ids


def _requests(table, row_ids: np.ndarray, size: int, dataset: str | None = None) -> list[Request]:
    return [
        Request([table.row(int(i)) for i in row_ids[k:k + size]], row_ids[k:k + size], dataset)
        for k in range(0, len(row_ids), size)
    ]


class Stream:
    """What one connection of a closed loop saw."""

    def __init__(self, plan: list[Request], n_attrs: int, fingerprint: str | None,
                 rng: np.random.Generator | None = None):
        self.plan = plan
        # Think time before each request, for clients that run side by
        # side.  Without it, closed-loop clients of one server lock into
        # one of several timing patterns, and a run lands in one or
        # another by chance.
        self.pauses = (rng.uniform(0, THINK_MAX_S, len(plan)) if rng else np.zeros(len(plan))).tolist()
        self.n_attrs = n_attrs
        self.fingerprint = fingerprint
        self.latencies: list[float] = []
        self.done: list[tuple[float, int]] = []  # (completion time, rows)
        self.flags: list = [None] * len(plan)
        self.rows = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, j: int, status: int, reply: dict) -> None:
        req = self.plan[j]
        if status != 200:
            self.failed += 1
            self.errors.append(f"HTTP {status}: {str(reply)[:200]}")
            return
        flags = reply.get("flags")
        if (not isinstance(flags, list) or len(flags) != len(req.rows)
                or any(len(row) != self.n_attrs for row in flags)):
            self.errors.append(f"reply to a {len(req.rows)}-row request is malformed")
        if self.fingerprint is not None and reply.get("fingerprint") != self.fingerprint:
            self.errors.append(f"fingerprint {reply.get('fingerprint')} != {self.fingerprint}")
        if self.flags[j] is None:
            self.flags[j] = flags
        elif self.flags[j] != flags:
            self.errors.append("the same request was answered with different flags")
        self.rows += len(req.rows)

    def served(self) -> tuple[np.ndarray, np.ndarray]:
        """(row ids, flag matrix) of every distinct row this stream sent."""
        ids = np.concatenate([r.row_ids for r in self.plan])
        flags = np.array([row for f in self.flags for row in f], dtype=bool)
        return ids, flags


def window_rate(streams: list[Stream], t0: float) -> float:
    """Rows answered per second from ``t0`` until the first client's last
    answer, so the tail where one client finishes its round alone does
    not count."""
    end = min(s.done[-1][0] for s in streams)
    rows = sum(r for s in streams for t, r in s.done if t <= end)
    return rows / (end - t0)


def closed_loop(server: Server, streams: list[Stream], seconds: float) -> float:
    """One thread and keep-alive connection per stream, each replaying its
    plan in whole rounds until ``seconds`` have passed; returns the
    start time, from which :func:`window_rate` measures."""
    starts: list[float] = []
    barrier = threading.Barrier(
        len(streams) + 1, action=lambda: starts.append(time.perf_counter()), timeout=60)
    crashes: list[BaseException] = []

    def drive(stream: Stream) -> None:
        client = server.connect()
        try:
            barrier.wait()
            start = time.perf_counter()
            while True:
                for j, req in enumerate(stream.plan):
                    time.sleep(stream.pauses[j])
                    status, reply, s = client.score(req.body)
                    stream.latencies.append(s)
                    stream.done.append((time.perf_counter(), len(req.rows)))
                    stream.check(j, status, reply)
                if time.perf_counter() - start >= seconds:
                    return
        except BaseException as exc:  # re-raised in the calling thread
            crashes.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=drive, args=(s,)) for s in streams]
    # No collector pauses in the client while it times the server.
    gc.collect()
    gc.disable()
    try:
        for t in threads:
            t.start()
        barrier.wait()
        for t in threads:
            t.join(timeout=seconds + 120)
    finally:
        gc.enable()
    require(not any(t.is_alive() for t in threads), "a load-generator thread hung")
    if crashes:
        raise crashes[0]
    for s in streams:
        require(not s.errors, f"{len(s.errors)} bad replies, first: {s.errors[:1]}")
    return starts[0]


def _scrape(server: Server) -> dict:
    status, text = request(server.host, server.port, "GET", "/metrics")
    require(status == 200, f"GET /metrics answered {status}")
    return parse_prometheus(text)


def _health(server: Server) -> dict:
    status, body = request(server.host, server.port, "GET", "/healthz")
    require(status == 200, f"GET /healthz answered {status}")
    return body


def _delta(after: dict, before: dict, name: str, **labels) -> float:
    return metric_sum(after, name, **labels) - metric_sum(before, name, **labels)


def _service_layers(before: dict, after: dict, lat_p50_s: float, latencies: list[float],
                    suffix: str, **labels) -> dict:
    """service.* over one phase (or one tenant) from two /metrics scrapes."""
    count = _delta(after, before, "repro_score_latency_seconds_count", **labels)
    batch_s = _delta(after, before, "repro_score_latency_seconds_sum", **labels) / max(1, count)
    if labels:
        rows = _delta(after, before, "repro_tenant_scored_rows_total", **labels)
    else:
        rows = _delta(after, before, "repro_scored_rows_total")
    return {
        f"service.batch_score_ms.{suffix}": 1000 * batch_s,
        f"service.rows_per_batch.{suffix}": rows / max(1, count),
        f"service.front_ms.{suffix}": 1000 * (lat_p50_s - batch_s),
        f"service.rtt_p99_ms.{suffix}": 1000 * percentile(latencies, 99),
    }


def _warm(server: Server, requests: list[Request]) -> int:
    """Send each request once on one connection: rows sent."""
    client = server.connect()
    try:
        for req in requests:
            status, reply, _ = client.score(req.body)
            require(status == 200, f"warm-up request answered {status}: {str(reply)[:200]}")
    finally:
        client.close()
    return sum(len(r.rows) for r in requests)


def _start_servers(run: Run, save, serve_args: list[str], warm: list[Request],
                   marker: str | None = None):
    """Set-up after the fit, SETUP_REPS times: save, serve, ready, warm.

    Every server but the last is stopped again; returns the last one,
    the rows it was warmed with and the median set-up seconds.
    """
    post_s, server = [], None
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        save()
        server = Server(serve_args, run.tmp / f"serve-{rep}.log")
        try:
            warm_rows = _warm(server, warm)
        except BaseException:
            server.stop()
            raise
        post_s.append(time.perf_counter() - t0)
        if rep < SETUP_REPS - 1:
            server.stop()
    return server, warm_rows, statistics.median(post_s)


# --- hospital_http -----------------------------------------------------------
HOSP_FIT_ROWS = 1_000
HOSP_POOL_ROWS = 3_000
R1_REQUESTS = 100
R64_REQUESTS, R64_ROWS = 32, 64


def hospital_http(run: Run) -> Outcome:
    gen_s = []
    for _ in range(SETUP_REPS):
        data, seconds = _generate("hospital", HOSP_FIT_ROWS + HOSP_POOL_ROWS)
        gen_s.append(seconds)
    table, truth = data.dirty, data.mask.matrix
    order = HOSP_FIT_ROWS + np.random.default_rng(run.seed).permutation(HOSP_POOL_ROWS)
    r1_ids = order[:R1_REQUESTS]
    r64_ids = order[R1_REQUESTS:R1_REQUESTS + R64_REQUESTS * R64_ROWS]
    r1_plan = _requests(table, r1_ids, 1)
    r64_plan = _requests(table, r64_ids, R64_ROWS)
    warm = r1_plan[:5] + r64_plan[:2]

    fit = Fit(table.head(HOSP_FIT_ROWS), ZeroEDConfig())
    _, _, f1 = check_beats_flag_all(fit.in_sample_mask(), truth[:HOSP_FIT_ROWS], "hospital in-sample")
    art = run.tmp / "hospital-artifact"
    save_s = []
    server, warm_rows, post_s = _start_servers(
        run, lambda: save_s.append(_save(fit, art)), ["--artifact", str(art)], warm)
    try:
        setup_s = statistics.median(gen_s) + post_s
        fit.drop()
        gc.collect()
        n_attrs = table.n_attributes
        m0 = _scrape(server)
        r1 = Stream(r1_plan, n_attrs, None)
        closed_loop(server, [r1], run.seconds / 2)
        m1 = _scrape(server)
        r64 = Stream(r64_plan, n_attrs, None)
        r64_t0 = closed_loop(server, [r64], run.seconds / 2)
        m2 = _scrape(server)
        health = _health(server)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    streams = [r1, r64]
    sent = warm_rows + sum(s.rows for s in streams)
    require(health["rows_scored"] == sent,
            f"/healthz counts {health['rows_scored']} rows scored, {sent} were sent")

    ids, flags = zip(*(s.served() for s in streams))
    ids, flags = np.concatenate(ids), np.concatenate(flags)
    _, _, heldout_f1 = check_beats_flag_all(flags, truth[ids], "hospital held-out (served)")
    scorer, load_s = _load_scorer(art)
    layers = {}
    if run.traced:
        layers.update(_fit_layers(run, [fit]))
        before = run.probe.snapshot()
        for req in r1_plan + r64_plan:
            scorer.score_rows(req.rows)
        layers.update(_scorer_layers(run.probe.since(before)))
        for stream, (a, b), size in ((r1, (m0, m1), "small"), (r64, (m1, m2), "large")):
            lat = stream.latencies
            layers.update(_service_layers(a, b, statistics.median(lat), lat, size))
    pick = np.random.default_rng(run.seed + 1).choice(len(ids), RESCORE_ROWS, replace=False)
    _check_rescored(scorer, [table.row(int(ids[k])) for k in pick], flags[pick], "hospital served")

    attempted = sum(len(s.latencies) for s in streams)
    run.note(f"hospital_http: r1 {len(r1.latencies)} requests, "
             f"r64 {attempted - len(r1.latencies)} requests; fit {fit.seconds:.2f}s")
    metrics = {
        "setup_s": setup_s,
        "fit_s": fit.seconds,
        "llm_tokens": fit.tokens,
        "llm_requests": fit.ledger["requests"],
        "f1": f1,
        "heldout_f1": heldout_f1,
        "rows_per_s": window_rate([r64], r64_t0),
        "lat_p50_ms.small": 1000 * statistics.median(r1.latencies),
        "lat_p50_ms.large": 1000 * statistics.median(r64.latencies),
        "peak_rss_mb": peak_rss,
    }
    layers.update({
        "data.generate_s": statistics.median(gen_s),
        "artifact.save_s": statistics.median(save_s),
        "artifact.load_s": load_s,
        "artifact.bytes": _dir_bytes(art),
    })
    return Outcome(metrics, layers, attempted=attempted, failed=sum(s.failed for s in streams))


# --- tenants_http ------------------------------------------------------------
TENANT_FIT_ROWS = 1_000
TENANT_POOL_ROWS = 1_000
TENANT_REQUESTS, TENANT_ROWS = 64, 8
TENANTS = ("flights", "hospital")  # smaller request first (fewer attributes)
WORKERS = 2


def tenants_http(run: Run) -> Outcome:
    gen_s = []
    for _ in range(SETUP_REPS):
        made = {name: _generate(name, TENANT_FIT_ROWS + TENANT_POOL_ROWS) for name in TENANTS}
        gen_s.append(sum(seconds for _, seconds in made.values()))
    data = {name: d for name, (d, _) in made.items()}
    rng = np.random.default_rng(run.seed)
    plans = {}
    for name in TENANTS:
        ids = TENANT_FIT_ROWS + rng.permutation(TENANT_POOL_ROWS)[:TENANT_REQUESTS * TENANT_ROWS]
        plans[name] = _requests(data[name].dirty, ids, TENANT_ROWS, dataset=name)
    warm = [plans[name][k] for name in TENANTS for k in range(3)]

    fits, in_sample = {}, []
    for name in TENANTS:
        fit = Fit(data[name].dirty.head(TENANT_FIT_ROWS), ZeroEDConfig())
        truth = data[name].mask.matrix[:TENANT_FIT_ROWS]
        pred = fit.in_sample_mask()
        check_beats_flag_all(pred, truth, f"{name} in-sample")
        in_sample.append((pred, truth))
        fits[name] = fit
    arts = {name: run.tmp / f"{name}-artifact" for name in TENANTS}
    save_s = []

    def save_all() -> None:
        save_s.append(sum(_save(fits[n], arts[n]) for n in TENANTS))

    serve_args = [a for name in ("hospital", "flights") for a in ("--artifact", str(arts[name]))]
    server, warm_rows, post_s = _start_servers(
        run, save_all, serve_args + ["--workers", str(WORKERS)], warm)
    try:
        setup_s = statistics.median(gen_s) + post_s
        for fit in fits.values():
            fit.drop()
        gc.collect()
        attrs = {name: data[name].dirty.attributes for name in TENANTS}
        m0 = _scrape(server)
        rng = np.random.default_rng([run.seed, 2])
        streams = {
            name: Stream(plans[name], len(attrs[name]), schema_fingerprint(attrs[name]), rng)
            for name in TENANTS
        }
        t0 = closed_loop(server, list(streams.values()), run.seconds)
        m1 = _scrape(server)
        health = _health(server)
        peak_rss = server.peak_rss_mb(worker_marker="spawn_main")
    finally:
        server.stop()
    sent = warm_rows + sum(s.rows for s in streams.values())
    require(health["rows_scored"] == sent,
            f"/healthz counts {health['rows_scored']} rows scored, {sent} were sent")
    misses = _delta(m1, m0, "repro_registry_misses_total")
    require(misses == 0, f"registry missed {misses} times during the timed phase")
    worker_batches = _delta(m1, m0, "repro_worker_batches_total")
    require(worker_batches > 0, "no micro-batch reached a worker process")

    served, rescore = [], []
    for name in TENANTS:
        ids, flags = streams[name].served()
        served.append((flags, data[name].mask.matrix[ids]))
        check_beats_flag_all(flags, data[name].mask.matrix[ids], f"{name} held-out (served)")
        rescore.append((name, ids, flags))
    heldout_f1 = _pooled_f1(served)
    scorers, load_s = {}, 0.0
    for name in TENANTS:
        scorers[name], seconds = _load_scorer(arts[name])
        load_s += seconds
    layers = {}
    if run.traced:
        layers.update(_fit_layers(run, list(fits.values())))
        before = run.probe.snapshot()
        inproc_ms = {}
        for name in TENANTS:
            start = time.perf_counter()
            for req in plans[name]:
                scorers[name].score_rows(req.rows)
            inproc_ms[name] = 1000 * (time.perf_counter() - start) / len(plans[name])
        layers.update(_scorer_layers(run.probe.since(before)))
        for name, suffix in zip(TENANTS, ("small", "large")):
            lat = streams[name].latencies
            layers.update(_service_layers(m0, m1, statistics.median(lat), lat, suffix, tenant=name))
        batch_ms = [layers[f"service.batch_score_ms.{s}"] for s in ("small", "large")]
        layers["workers.batches"] = worker_batches
        layers["workers.dispatch_ms"] = statistics.mean(
            b - inproc_ms[name] for b, name in zip(batch_ms, TENANTS))
        for stat in ("hits", "misses", "loads"):
            layers[f"registry.{stat}"] = metric_sum(m1, f"repro_registry_{stat}_total")
    for name, ids, flags in rescore:
        pick = np.random.default_rng(run.seed + 1).choice(len(ids), RESCORE_ROWS, replace=False)
        rows = [data[name].dirty.row(int(ids[k])) for k in pick]
        _check_rescored(scorers[name], rows, flags[pick], f"{name} served")

    everything = list(streams.values())
    attempted = sum(len(s.latencies) for s in everything)
    run.note(f"tenants_http: {attempted} requests; fits "
             + ", ".join(f"{n} {fits[n].seconds:.2f}s" for n in TENANTS))
    metrics = {
        "setup_s": setup_s,
        "fit_s": sum(f.seconds for f in fits.values()),
        "llm_tokens": sum(f.tokens for f in fits.values()),
        "llm_requests": sum(f.ledger["requests"] for f in fits.values()),
        "f1": _pooled_f1(in_sample),
        "heldout_f1": heldout_f1,
        "rows_per_s": window_rate(everything, t0),
        "lat_p50_ms.small": 1000 * statistics.median(streams["flights"].latencies),
        "lat_p50_ms.large": 1000 * statistics.median(streams["hospital"].latencies),
        "peak_rss_mb": peak_rss,
    }
    layers.update({
        "data.generate_s": statistics.median(gen_s),
        "artifact.save_s": statistics.median(save_s),
        "artifact.load_s": load_s,
        "artifact.bytes": sum(_dir_bytes(a) for a in arts.values()),
    })
    return Outcome(metrics, layers, attempted=attempted, failed=sum(s.failed for s in everything))


WORKLOADS = {"tax_bulk": tax_bulk, "hospital_http": hospital_http, "tenants_http": tenants_http}
