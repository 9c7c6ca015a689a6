"""Tests for RMAT / BA / ER generators, weights, and dataset presets."""

import numpy as np
import pytest

from repro.generators import (
    DATASET_PRESETS,
    barabasi_albert_edges,
    erdos_renyi_edges,
    generate_preset,
    rmat_edges,
)
from repro.generators.weights import decreasing_reweights


class TestRMAT:
    def test_shape_and_range(self):
        src, dst = rmat_edges(8, edge_factor=4, rng=np.random.default_rng(0))
        assert len(src) == len(dst) == 4 * 256
        assert src.min() >= 0 and src.max() < 256
        assert dst.min() >= 0 and dst.max() < 256

    def test_seeded_determinism(self):
        a = rmat_edges(7, rng=np.random.default_rng(1))
        b = rmat_edges(7, rng=np.random.default_rng(1))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_skewed_degree_distribution(self):
        # Graph500 parameters must produce heavy skew: the top vertex
        # should hold far more than the mean degree.
        src, dst = rmat_edges(12, edge_factor=8, rng=np.random.default_rng(2))
        degs = np.bincount(src, minlength=1 << 12)
        assert degs.max() > 20 * degs.mean()

    def test_uniform_parameters_remove_skew(self):
        src, _ = rmat_edges(
            12, edge_factor=8, rng=np.random.default_rng(3), a=0.25, b=0.25, c=0.25
        )
        degs = np.bincount(src, minlength=1 << 12)
        assert degs.max() < 5 * degs.mean()

    def test_scramble_changes_id_degree_correlation(self):
        rng = np.random.default_rng(4)
        src_raw, _ = rmat_edges(10, edge_factor=8, rng=rng, scramble=False)
        # Unscrambled RMAT concentrates degree on low IDs.
        degs = np.bincount(src_raw, minlength=1 << 10)
        low_mass = degs[: 1 << 8].sum() / degs.sum()
        assert low_mass > 0.5

    def test_noise_still_valid(self):
        src, dst = rmat_edges(8, rng=np.random.default_rng(5), noise=0.3)
        assert src.max() < 256 and dst.max() < 256

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            rmat_edges(0, rng=rng)
        with pytest.raises(ValueError):
            rmat_edges(4, rng=rng, a=0.9, b=0.2, c=0.2)  # d < 0


class TestBarabasiAlbert:
    def test_edge_count(self):
        n, m = 200, 3
        src, dst = barabasi_albert_edges(n, m, rng=np.random.default_rng(0))
        assert len(src) == m + (n - m - 1) * m

    def test_time_respecting_sources(self):
        src, dst = barabasi_albert_edges(100, 2, rng=np.random.default_rng(1))
        # each edge's source is the newly arriving vertex: sources are
        # non-decreasing and always newer than their targets
        assert np.all(np.diff(src) >= 0)
        assert np.all(dst < src)

    def test_no_duplicate_targets_per_arrival(self):
        src, dst = barabasi_albert_edges(300, 4, rng=np.random.default_rng(2))
        for v in np.unique(src):
            targets = dst[src == v]
            assert len(set(targets)) == len(targets)

    def test_preferential_attachment_creates_hubs(self):
        src, dst = barabasi_albert_edges(3000, 2, rng=np.random.default_rng(3))
        degs = np.bincount(np.concatenate([src, dst]))
        assert degs.max() > 10 * degs.mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert_edges(3, 5)


class TestErdosRenyi:
    def test_shape_and_no_self_loops(self):
        src, dst = erdos_renyi_edges(50, 500, rng=np.random.default_rng(0))
        assert len(src) == 500
        assert not np.any(src == dst)

    def test_self_loops_allowed_when_asked(self):
        src, dst = erdos_renyi_edges(
            2, 200, rng=np.random.default_rng(1), allow_self_loops=True
        )
        assert np.any(src == dst)

    def test_flat_degrees(self):
        src, _ = erdos_renyi_edges(100, 10_000, rng=np.random.default_rng(2))
        degs = np.bincount(src, minlength=100)
        assert degs.max() < 2 * degs.mean()

    def test_tiny_universe_rejected(self):
        with pytest.raises(ValueError):
            erdos_renyi_edges(1, 10)


class TestWeights:
    def test_decreasing_reweights_strictly_smaller(self):
        rng = np.random.default_rng(1)
        w = rng.integers(2, 50 + 1, size=200, dtype=np.int64)
        idx, new = decreasing_reweights(w, 0.5, rng=rng)
        assert len(idx) > 0
        assert np.all(new < w[idx])
        assert np.all(new >= 1)

    def test_decreasing_skips_weight_one(self):
        w = np.ones(10, dtype=np.int64)
        idx, new = decreasing_reweights(w, 1.0, rng=np.random.default_rng(2))
        assert len(idx) == 0

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            decreasing_reweights(np.array([5]), 1.5)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(DATASET_PRESETS))
    def test_generate_all_presets(self, name):
        src, dst, preset = generate_preset(name, np.random.default_rng(0), scale=9)
        assert len(src) == len(dst) > 0
        assert preset.name == name
        assert preset.paper_edges > 1_000_000_000  # Table I scale

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            generate_preset("orkut", np.random.default_rng(0))

    def test_default_scale_used(self):
        src, _, preset = generate_preset("twitter", np.random.default_rng(0))
        assert src.max() < 1 << preset.default_scale

    def test_describe_mentions_paper_dataset(self):
        assert "Twitter" in DATASET_PRESETS["twitter"].describe()

    def test_presets_structurally_differ(self):
        rng = np.random.default_rng(7)
        src_t, _, _ = generate_preset("twitter", rng, scale=11)
        rng = np.random.default_rng(7)
        src_f, _, _ = generate_preset("friendster", rng, scale=11)
        degs_t = np.bincount(src_t, minlength=1 << 11)
        degs_f = np.bincount(src_f, minlength=1 << 11)
        # Twitter stand-in (RMAT, high A) is more skewed than the BA one.
        skew_t = degs_t.max() / max(degs_t.mean(), 1e-9)
        skew_f = degs_f.max() / max(degs_f.mean(), 1e-9)
        assert skew_t > skew_f
