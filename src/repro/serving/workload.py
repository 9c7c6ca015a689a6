"""Mixed update+query workloads: serving while the stream runs.

The on-line analytics scenario the serving layer exists for is not
"ingest, quiesce, then answer" — it is a live system fielding point
queries *while* topology events keep arriving.  This module drives that
mix deterministically on the DES backend: ingest runs in bounded
slices (``engine.run(max_actions=...)``), and between slices a query
batch sized by the configured query:update ratio is served through a
:class:`~repro.serving.server.ServingLayer`, with per-query latency
recorded and (optionally) every ``stale=False`` envelope checked
against the static oracle recomputed on the exact ingested prefix.

Used by ``repro serve`` (the CLI front-end), the serving-latency bench,
and the differential tests — one driver, three consumers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analytics.verify import FAMILIES, csr_from_engine, family, static_answer

#: Query kinds the driver can issue, per algorithm family.
KINDS_FOR = {
    "bfs": ("point", "distance", "reachable"),
    "sssp": ("point", "distance", "reachable"),
    "cc": ("point", "component"),
    "st": ("point", "connected"),
    "widest": ("point", "capacity"),
}

#: Per-family "this raw value means unreached" predicates.
UNREACHED = {kind: fam.unreached for kind, fam in FAMILIES.items()}


def make_prefix_oracle(
    engine,
    kind: str,
    source: int | None = None,
    sources: list[int] | None = None,
) -> Callable[[], dict[int, Any]]:
    """A zero-arg closure computing ``{vertex: static value}`` on the
    engine's *current* topology — the discretized ingested prefix.

    This is the ground truth every ``stale=False`` served answer must
    match (absent vertex = statically unreached).  An unknown ``kind``
    is a ``ValueError`` here, not mid-ingest at the first call.
    """
    seed = family(kind).pick(source, sources)
    return lambda: static_answer(kind, csr_from_engine(engine), seed)


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a mixed update+query run.

    ``ratio`` is queries per ingested topology event (0.1 = one query
    per ten events); ``slice_actions`` bounds each ingest slice in DES
    actions, setting the query interleaving granularity.
    """

    ratio: float = 0.1
    slice_actions: int = 2048
    kinds: tuple[str, ...] | None = None  # None = KINDS_FOR[algo]
    seed: int = 0
    max_queries: int | None = None
    # Converged-tail batch served once the stream quiesces: ingest-time
    # pauses rarely land exactly on a drained instant, so this batch
    # guarantees every run also exercises the stale-free/cache-hit path.
    final_queries: int = 64

    @classmethod
    def from_spec(cls, spec: str) -> "WorkloadSpec":
        """Parse ``"ratio=0.5,slice=4096,kinds=point:distance,seed=7,max=10000"``
        (any subset; same shape as ``FaultPlan.from_spec``)."""
        kw: dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"workload spec term {part!r} is not key=value")
            key, _, val = part.partition("=")
            key = key.strip()
            val = val.strip()
            if key == "ratio":
                kw["ratio"] = float(val)
            elif key == "slice":
                kw["slice_actions"] = int(val)
            elif key == "kinds":
                kw["kinds"] = tuple(val.split(":"))
            elif key == "seed":
                kw["seed"] = int(val)
            elif key == "max":
                kw["max_queries"] = int(val)
            elif key == "final":
                kw["final_queries"] = int(val)
            else:
                raise ValueError(f"unknown workload spec key {key!r}")
        if kw.get("ratio", 0.1) < 0:
            raise ValueError("workload ratio must be >= 0")
        if kw.get("slice_actions", 2048) <= 0:
            raise ValueError("workload slice must be > 0")
        return cls(**kw)

    def describe(self) -> str:
        kinds = ":".join(self.kinds) if self.kinds else "auto"
        out = (
            f"ratio={self.ratio:g}, slice={self.slice_actions}, "
            f"kinds={kinds}, seed={self.seed}, final={self.final_queries}"
        )
        if self.max_queries is not None:
            out += f", max={self.max_queries}"
        return out


@dataclass
class WorkloadResult:
    """Everything a mixed run measured."""

    queries: int = 0
    events_ingested: int = 0
    slices: int = 0
    wall_seconds: float = 0.0
    query_seconds: float = 0.0
    latencies_ns: list[int] = field(default_factory=list)
    per_kind: dict[str, int] = field(default_factory=dict)
    stale_served: int = 0
    verified: int = 0
    violations: list[str] = field(default_factory=list)
    cache_stats: dict[str, Any] = field(default_factory=dict)

    def percentile_ns(self, p: float) -> float:
        if not self.latencies_ns:
            return 0.0
        return float(np.percentile(np.array(self.latencies_ns), p))

    @property
    def p50_us(self) -> float:
        return self.percentile_ns(50) / 1e3

    @property
    def p99_us(self) -> float:
        return self.percentile_ns(99) / 1e3

    @property
    def qps(self) -> float:
        """Serving throughput over pure query time (what a dedicated
        serving thread would sustain against this engine state)."""
        return self.queries / self.query_seconds if self.query_seconds else 0.0

    @property
    def hit_rate(self) -> float:
        hits = self.cache_stats.get("hits", 0)
        misses = self.cache_stats.get("misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "queries": self.queries,
            "events_ingested": self.events_ingested,
            "slices": self.slices,
            "wall_seconds": self.wall_seconds,
            "query_seconds": self.query_seconds,
            "qps": self.qps,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "per_kind": dict(self.per_kind),
            "stale_served": self.stale_served,
            "hit_rate": self.hit_rate,
            "verified": self.verified,
            "violations": len(self.violations),
            "cache": dict(self.cache_stats),
        }


class MixedWorkloadDriver:
    """Interleave saturation ingest with served query batches.

    Parameters
    ----------
    serving:
        The :class:`ServingLayer` over a live engine backend.
    spec:
        The :class:`WorkloadSpec` mix shape.
    pool:
        Candidate query target vertices (typically the stream's vertex
        universe).  Targets are drawn uniformly with a seeded RNG, so
        a given (spec, pool) replays identically.
    algo:
        Algorithm family key (``KINDS_FOR``) — picks the issued query
        kinds and the unreached convention.
    aux:
        Family extras: for ``st``, the list of registered source bits
        to probe; ignored otherwise.
    oracle_fn:
        Optional prefix oracle (see :func:`make_prefix_oracle`).  When
        given, every ``stale=False`` answer in a batch is checked
        against the oracle recomputed once per batch; mismatches are
        recorded as envelope violations (and are test failures — the
        stale flag is a *guarantee*, not a hint).
    """

    def __init__(
        self,
        serving,
        spec: WorkloadSpec,
        pool,
        algo: str,
        aux: list[int] | None = None,
        oracle_fn: Callable[[], dict[int, Any]] | None = None,
        max_violations: int = 32,
    ):
        if algo not in KINDS_FOR:
            raise ValueError(f"unknown algorithm family {algo!r}")
        self.serving = serving
        self.spec = spec
        self.pool = np.asarray(pool, dtype=np.int64)
        if len(self.pool) == 0:
            raise ValueError("query target pool is empty")
        self.algo = algo
        self.aux = aux or []
        self.oracle_fn = oracle_fn
        self.max_violations = max_violations
        self.kinds = tuple(spec.kinds) if spec.kinds else KINDS_FOR[algo]
        for k in self.kinds:
            if k not in KINDS_FOR[algo]:
                raise ValueError(
                    f"query kind {k!r} not available for {algo!r} "
                    f"(choose from {KINDS_FOR[algo]})"
                )
        self.rng = np.random.default_rng(spec.seed)
        self.prog = serving.backend.prog_names[0] if serving.backend.prog_names else None

    # ------------------------------------------------------------------
    def run(self) -> WorkloadResult:
        """Drive ingest to quiescence, serving query batches between
        slices; returns the measured :class:`WorkloadResult`."""
        serving = self.serving
        engine = serving.backend.engine
        spec = self.spec
        res = WorkloadResult()
        carry = 0.0
        last_wm = engine.ingest_watermark()
        t_start = time.perf_counter()
        while True:
            engine.run(max_actions=spec.slice_actions)
            res.slices += 1
            wm = engine.ingest_watermark()
            carry += (wm - last_wm) * spec.ratio
            last_wm = wm
            n = int(carry)
            carry -= n
            if spec.max_queries is not None:
                n = min(n, spec.max_queries - res.queries)
            if n > 0:
                self._serve_batch(n, res)
            if engine.loop.quiescent():
                break
        n = spec.final_queries
        if spec.max_queries is not None:
            n = min(n, spec.max_queries - res.queries)
        if n > 0:
            self._serve_batch(n, res)
        res.wall_seconds = time.perf_counter() - t_start
        res.events_ingested = engine.ingest_watermark()
        res.cache_stats = serving.cache.stats()
        return res

    def serve_only(self, n: int) -> WorkloadResult:
        """Serve ``n`` queries with no ingest interleaving — the mp
        (frozen-harvest) serving mode, where the state is already
        quiescent and every answer must come back ``stale=False``."""
        res = WorkloadResult()
        t_start = time.perf_counter()
        self._serve_batch(n, res)
        res.wall_seconds = time.perf_counter() - t_start
        res.cache_stats = self.serving.cache.stats()
        return res

    # ------------------------------------------------------------------
    def _serve_batch(self, n: int, res: WorkloadResult) -> None:
        serving = self.serving
        oracle = self.oracle_fn() if self.oracle_fn is not None else None
        targets = self.rng.choice(self.pool, size=n)
        kind_picks = self.rng.integers(0, len(self.kinds), size=n)
        t0 = time.perf_counter()
        for i in range(n):
            kind = self.kinds[kind_picks[i]]
            v = int(targets[i])
            q0 = time.perf_counter_ns()
            result, aux = self._issue(kind, v)
            res.latencies_ns.append(time.perf_counter_ns() - q0)
            res.queries += 1
            res.per_kind[kind] = res.per_kind.get(kind, 0) + 1
            if result.stale:
                res.stale_served += 1
            elif oracle is not None:
                res.verified += 1
                err = self._check(kind, v, aux, result, oracle)
                if err and len(res.violations) < self.max_violations:
                    res.violations.append(err)
        res.query_seconds += time.perf_counter() - t0

    def _issue(self, kind: str, v: int):
        """Issue one query; returns (QueryResult, aux) where aux is the
        second operand (peer vertex or source bit) if any."""
        s = self.serving
        if kind == "point":
            return s.point(self.prog, v), None
        if kind == "distance":
            return s.distance(self.prog, v), None
        if kind == "reachable":
            return s.reachable(self.prog, v), None
        if kind == "capacity":
            return s.capacity(self.prog, v), None
        if kind == "component":
            u = int(self.rng.choice(self.pool))
            return s.same_component(self.prog, u, v), u
        if kind == "connected":
            bit = int(self.rng.integers(0, max(len(self.aux), 1)))
            return s.connected_to(self.prog, v, bit), bit
        raise AssertionError(f"unhandled query kind {kind!r}")

    def _check(
        self, kind: str, v: int, aux, result, oracle: dict[int, Any]
    ) -> str | None:
        """Differential envelope check for one stale=False answer;
        returns a mismatch description or None."""
        unreached = UNREACHED[self.algo]
        got = result.value
        if kind == "point":
            want = oracle.get(v)
            if want is None:
                if not unreached(got):
                    return f"point {v}: served {got!r}, statically unreached"
            elif got != want:
                return f"point {v}: served {got!r}, static {want!r}"
        elif kind in ("distance", "capacity"):
            want = oracle.get(v)
            if (got is None) != (want is None):
                return f"{kind} {v}: served {got!r}, static {want!r}"
            if got is not None and got != want:
                return f"{kind} {v}: served {got!r}, static {want!r}"
        elif kind == "reachable":
            want = v in oracle
            if got != want:
                return f"reachable {v}: served {got}, static {want}"
        elif kind == "component":
            u = aux
            lu, lv = oracle.get(u, 0), oracle.get(v, 0)
            want = bool(lu != 0 and lu == lv)
            if got != want:
                return f"component ({u},{v}): served {got}, static {want}"
        elif kind == "connected":
            bit = aux
            want = bool(oracle.get(v, 0) >> bit & 1)
            if got != want:
                return f"connected ({v},bit {bit}): served {got}, static {want}"
        return None
