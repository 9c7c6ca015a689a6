"""Ablation — DegAwareRHH design choices (§III-B).

Two studies on the storage substrate:

1. **hash table** — ``RobinHoodMap.put`` (the paper's probe sequence,
   emulated slot by slot in Python) against a ``dict`` store (the
   table ``DegAwareRHH`` uses, in C) on the same key stream: wall-clock
   insert time, plus the probe/displacement profile only the Robin Hood
   map can report.
2. **degree-aware promotion threshold** — sweep the low-degree /
   high-degree boundary and report membership-probe work, showing why
   a "separate, compact data structure for low-degree vertices"
   matters on power-law graphs.
"""

import pytest

from conftest import report_table
from harness import BENCH_SCALE, SEEDS, fmt_table

from repro.generators import rmat_edges
from repro.storage.degaware import DegAwareRHH
from repro.storage.robin_hood import RobinHoodMap

SCALE = 12 + BENCH_SCALE


def _edges():
    rng = SEEDS.rng("ablation-storage")
    return rmat_edges(SCALE, edge_factor=8, rng=rng)


@pytest.mark.parametrize("table", ["robinhood", "dict"])
def test_ablation_hash_table_put(benchmark, table):
    """One put per edge source: the vertex-index key stream of a store."""
    keys = _edges()[0].tolist()

    def build():
        if table == "dict":
            d: dict[int, int] = {}
            for i, k in enumerate(keys):
                d[k] = i
            return d
        m = RobinHoodMap(initial_capacity=64)
        for i, k in enumerate(keys):
            m.put(k, i)
        return m

    built = benchmark.pedantic(build, iterations=1, rounds=3)
    assert len(built) == len(set(keys))


def test_ablation_robin_hood_probe_stats(benchmark):
    """Load-factor / probe-distance profile of the Robin Hood map."""
    rng = SEEDS.rng("ablation-rhh")
    keys = rng.integers(0, 1 << 40, size=50_000)

    def build():
        m = RobinHoodMap(initial_capacity=64, max_load_factor=0.85)
        for k in keys:
            m.put(int(k), 1)
        return m

    m = benchmark.pedantic(build, iterations=1, rounds=1)
    rows = [[
        f"{m.load_factor:.2f}",
        f"{m.mean_probe_distance():.2f}",
        m.max_probe_distance(),
        m.resize_count,
        f"{m.probe_count / len(keys):.2f}",
    ]]
    table = fmt_table(
        ["load factor", "mean probe dist", "max probe dist", "resizes", "probes/op"],
        rows,
        title="Ablation: Robin Hood map probe profile at 50k random keys",
    )
    report_table("ablation_robinhood", table)
    # Robin Hood keeps probe distances short even at high load.
    assert m.mean_probe_distance() < 3.0
    assert m.max_probe_distance() < 40


def test_ablation_promote_threshold(benchmark):
    """Sweep the degree-aware promotion threshold on an RMAT stream."""
    src, dst = _edges()

    def sweep():
        rows = []
        for threshold in (2, 4, 8, 16, 64, 1 << 30):
            store = DegAwareRHH(promote_threshold=threshold)
            for s, d in zip(src, dst):
                store.insert_edge(int(s), int(d))
            label = str(threshold) if threshold < (1 << 30) else "never"
            rows.append(
                [
                    label,
                    store.stats.promotions,
                    f"{store.stats.low_degree_scans:,}",
                    f"{store.stats.low_degree_scans / len(src):.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = fmt_table(
        ["promote threshold", "promotions", "linear scans", "scans/insert"],
        rows,
        title=(
            "Ablation: degree-aware promotion threshold (RMAT stream) — "
            "'never' = flat compact lists, the no-DegAware baseline"
        ),
    )
    report_table("ablation_degaware", table)
    # Promoting hubs to hash tables must cut linear-scan work massively
    # versus never promoting (hubs are exactly where scans explode).
    scans = {r[0]: int(r[2].replace(",", "")) for r in rows}
    assert scans["8"] * 5 < scans["never"]
