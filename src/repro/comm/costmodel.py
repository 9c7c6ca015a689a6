"""Virtual-time cost model for the simulated cluster.

Every constant is in **virtual seconds** and is calibrated against the
paper's headline numbers rather than micro-benchmarked on this machine
(the machine under simulation is a 2013-era Catalyst node: dual 12-core
Xeon E5-2695v2 at 2.4 GHz, MPI over IB):

* The paper sustains up to **1.3 B edge events/s on 3072 cores**, i.e.
  ~423 K events/s/core at best, with 400 M/s (~130 K/s/core) at the low
  end (§V-E).  One undirected edge event costs, per the pipeline: one
  stream pull, one ADD visit (edge insert + algorithm callback), one
  REVERSE_ADD visit (edge insert + callback), plus ~2 message sends.
  With the constants below that totals ≈ 2.4 virtual µs of rank CPU,
  reproducing the per-core magnitude.
* MPI eager-path latencies: ~0.4 µs shared-memory (intra-node), ~1.5 µs
  InfiniBand (inter-node).  ``ranks_per_node`` (24, like Catalyst)
  decides which applies.

The calibration is fixed (one platform is modelled).  Settable are only
``ranks_per_node`` (``--ranks-per-node``, the benchmark harness),
``channel_capacity`` (the flow-control ablation) and ``rank_memory_bytes``
(the NVRAM spill ablation).

DegAwareRHH lookups are not charged by length: an insert or delete
costs the flat ``edge_insert_cpu`` however long its scan, and the
low-degree tier's comparison steps land in
``AdjacencyStats.low_degree_scans`` for the storage ablation to report.
``storage_probe_cpu`` is charged in one place only — the edge-weight
lookup of an ``update_single_nbr`` call that passes no weight.

The static-side constants encode the paper's Fig.-3 observations: CSR
construction is a sort-dominated bulk build (~2x cheaper per edge than
dynamic ingestion), static traversal on CSR enjoys locality that
traversal over the dynamic structure lacks (``dynamic_read_penalty``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

from repro.util.validate import check_positive

US = 1e-6  # one microsecond, for readability below


def _fixed(value: float):
    """A calibrated constant: reported by ``to_dict``, never an argument
    of the constructor or of ``with_overrides``."""
    return field(default=value, init=False)


# With slots a fixed value is a slot filled by __init__, read per event as
# fast as a settable one, not a class attribute read through the instance.
@dataclass(frozen=True, slots=True)
class CostModel:
    """All virtual-time constants of the simulated platform; three are
    settable, the rest fixed (see the module docstring)."""

    # --- dynamic pipeline, charged to the acting rank's clock ---------
    stream_pull_cpu: float = _fixed(0.20 * US)  # parse one [src,dst] pair
    edge_insert_cpu: float = _fixed(0.55 * US)  # DegAwareRHH insert, base
    storage_probe_cpu: float = _fixed(0.05 * US)  # one edge-weight lookup on emit
    visit_cpu: float = _fixed(0.30 * US)  # algorithm callback that changes state
    visit_discard_cpu: float = _fixed(0.05 * US)  # no-effect callback (squashed, §II-D)
    send_cpu: float = _fixed(0.15 * US)  # enqueue one visitor message
    control_cpu: float = _fixed(0.30 * US)  # handle one control message

    # --- visitor-queue coalescing & batched dispatch (§II-D) ----------
    # Squashing merges a monotone UPDATE into one already queued at the
    # receiver (HavoqGT's combine-or-squash): no heap push, no later
    # pop/dispatch — only the in-place payload merge is paid.
    squash_cpu: float = _fixed(0.02 * US)  # combine payloads in the visitor queue
    # Bulk emission of one vertex's fan-out: the fixed part of a send
    # (buffer acquisition, routing setup) is paid once per batch, with a
    # cheap per-message increment for each visitor appended.
    batch_send_base_cpu: float = _fixed(0.15 * US)  # once per send_many batch
    batch_send_per_msg_cpu: float = _fixed(0.05 * US)  # per message in the batch

    # --- message latency (sender clock -> receiver availability) ------
    local_latency: float = _fixed(0.40 * US)  # same node (shared memory)
    remote_latency: float = _fixed(1.50 * US)  # cross node (interconnect)
    ranks_per_node: int = 24  # Catalyst: 24 cores/node

    # --- flow control ---------------------------------------------------
    # Visitor queues are bounded in real middleware (MPI buffers are
    # finite): a send into a receiver whose backlog exceeds the capacity
    # stalls the *sender* toward the receiver's drain horizon.  The
    # mechanism is OFF by default (capacity effectively unbounded):
    # redundant-event squashing (visit_discard_cpu) already keeps hub
    # backlogs cheap to drain, and the horizon approximation can
    # over-throttle under all-to-all broadcast storms.  The flow-control
    # ablation bench enables it explicitly.
    channel_capacity: int = 1 << 40  # per-receiver queued-message bound
    backpressure_stall_cpu: float = _fixed(0.05 * US)  # receiver service time per queued msg

    # --- out-of-core storage (§III-B: spill to NVRAM when needed) -----
    # When a rank's DegAwareRHH footprint exceeds its memory budget, the
    # overflow fraction lives on NVRAM (Catalyst: PCI-attached flash);
    # topology accesses then miss DRAM with probability equal to that
    # fraction and pay the flash access cost.  Default budget is
    # unbounded (all-in-memory), as in the paper's smaller runs.
    rank_memory_bytes: float = float("inf")
    nvram_access_cpu: float = _fixed(10.0 * US)  # amortised flash access

    # --- global state collection --------------------------------------
    gather_per_vertex_cpu: float = _fixed(0.02 * US)  # pack one vertex's state

    # --- static baseline (CSR bulk build + static traversal) ----------
    static_build_edge_cpu: float = _fixed(0.40 * US)  # sort+compress, per stored edge
    static_vertex_cpu: float = _fixed(0.25 * US)  # static algorithm, per visit
    static_edge_cpu: float = _fixed(0.055 * US)  # static algorithm, per edge scan
    # Distributed static traversal is communication-bound: each scanned
    # edge whose endpoint lives on another rank costs a visitor message
    # (cheap in shared memory, expensive across nodes).  These terms are
    # what make the 16-node static BFS of Fig. 4 as expensive as the
    # paper measures while the single-node static BFS of Fig. 3 stays a
    # sliver of construction time.
    static_local_msg_cpu: float = _fixed(0.10 * US)  # per scan crossing ranks, same node
    static_remote_msg_cpu: float = _fixed(0.40 * US)  # per scan crossing nodes
    dynamic_read_penalty: float = _fixed(2.6)  # static alg over dynamic store

    def __post_init__(self) -> None:
        check_positive("ranks_per_node", self.ranks_per_node)
        check_positive("channel_capacity", self.channel_capacity)
        check_positive("rank_memory_bytes", self.rank_memory_bytes)

    def spill_fraction(self, store_bytes: float) -> float:
        """Fraction of a rank's topology data living on NVRAM."""
        if store_bytes <= self.rank_memory_bytes:
            return 0.0
        return 1.0 - self.rank_memory_bytes / store_bytes

    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Which physical node a rank lives on."""
        return rank // self.ranks_per_node

    def latency(self, src_rank: int, dst_rank: int) -> float:
        """One-way message latency between two ranks."""
        if self.node_of(src_rank) == self.node_of(dst_rank):
            return self.local_latency
        return self.remote_latency

    def with_overrides(self, **kwargs) -> "CostModel":
        """A copy with selected settable values replaced (for ablations);
        a fixed constant is a ``ValueError``."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-safe constants (trace/metrics file metadata); the
        unbounded memory budget maps to None since IEEE inf is not
        valid JSON."""
        d = asdict(self)
        if d["rank_memory_bytes"] == float("inf"):
            d["rank_memory_bytes"] = None
        return d

    def static_traversal_time(
        self, vertex_visits: int, edge_scans: int, n_ranks: int, on_dynamic: bool = False
    ) -> float:
        """Virtual seconds for a distributed static traversal.

        Work (vertex visits + edge scans) parallelises across ranks;
        each scanned edge additionally pays a visitor-message cost with
        probability given by a random (hash) partition: ``1/P`` stays
        on-rank, ``(R-1)/P`` crosses ranks within a node, the rest
        crosses nodes.  ``on_dynamic`` applies the locality penalty of
        reading the dynamic structure instead of CSR (§V-B).
        """
        if n_ranks <= 0:
            raise ValueError(f"n_ranks must be > 0, got {n_ranks}")
        r = min(self.ranks_per_node, n_ranks)
        p_local_rank = (r - 1) / n_ranks
        p_remote = max(0.0, 1.0 - r / n_ranks)
        per_edge = (
            self.static_edge_cpu
            + p_local_rank * self.static_local_msg_cpu
            + p_remote * self.static_remote_msg_cpu
        )
        t = (vertex_visits * self.static_vertex_cpu + edge_scans * per_edge) / n_ranks
        return t * self.dynamic_read_penalty if on_dynamic else t


#: ``RankCounters`` fields that say why churn cost what it cost; reports
#: and the sampler carry exactly these.
DELETE_CAUSE_COUNTERS = (
    "deletes_safe",
    "deletes_unsafe",
    "vertices_invalidated",
    "repair_visits",
)


@dataclass
class RankCounters:
    """Per-rank operation counters the engine accumulates.

    These are *measurements* of the simulated execution (used by metrics
    and tests), not part of the cost model itself.
    """

    source_events: int = 0  # topology events pulled from this rank's stream
    edge_inserts: int = 0
    edge_deletes: int = 0
    visits: int = 0  # algorithm callbacks executed
    messages_sent_local: int = 0
    messages_sent_remote: int = 0
    control_messages: int = 0
    busy_time: float = 0.0  # virtual seconds of CPU consumed
    updates_squashed: int = 0  # UPDATEs combined into this rank's inbox (§II-D)
    batch_sends: int = 0  # send_many fan-out batches emitted by this rank
    bulk_chunks: int = 0  # bulk-ingest chunks this rank drained
    bulk_events: int = 0  # topology events ingested via the bulk path
    fallback_flushes: int = 0  # bulk de-optimizations back to per-event
    # Per-cause delete attribution, bumped by the delete-capable programs
    # (algorithms/generations.py) through ``VertexContext.count``.
    deletes_safe: int = 0  # delete callbacks that removed nobody's support
    deletes_unsafe: int = 0  # delete callbacks that cut a support edge
    vertices_invalidated: int = 0  # freezes (one per vertex per repair wave)
    repair_visits: int = 0  # visits handling I/A/T/F protocol messages

    def merge(self, other: "RankCounters") -> "RankCounters":
        names = [f.name for f in fields(self)]
        return RankCounters(
            **{name: getattr(self, name) + getattr(other, name) for name in names}
        )
