"""Tests for the offline partition-and-merge (MapReduce-style) baseline."""

import numpy as np
import pytest

from repro.core import BatchPCA, largest_principal_angle
from repro.data import contaminate_block
from tests.oracles import mapreduce_pca


class TestMapReducePCA:
    def test_matches_single_batch_on_clean_data(self, small_data):
        mr = mapreduce_pca(small_data, 3, n_partitions=4, robust=False)
        full = BatchPCA(3).fit(small_data)
        assert largest_principal_angle(
            mr.state.basis, full.components_.T
        ) < 0.02
        assert np.allclose(mr.eigenvalues, full.eigenvalues_, rtol=0.02)
        assert len(mr.partition_states) == 4

    def test_robust_variant_survives_contamination(
        self, small_model, small_data, rng
    ):
        x, _ = contaminate_block(small_data, 0.08, 25.0, rng)
        mr = mapreduce_pca(x, 3, n_partitions=4, robust=True)
        assert largest_principal_angle(mr.state.basis, small_model.basis) < 0.1
        # Non-robust map phase breaks on the same data.
        mr_plain = mapreduce_pca(x, 3, n_partitions=4, robust=False)
        assert largest_principal_angle(
            mr_plain.state.basis, small_model.basis
        ) > 0.5

    def test_multiprocess_workers_agree_with_inline(self, small_data):
        inline = mapreduce_pca(
            small_data, 3, n_partitions=4, n_workers=1, robust=False
        )
        pooled = mapreduce_pca(
            small_data, 3, n_partitions=4, n_workers=2, robust=False
        )
        assert np.allclose(inline.eigenvalues, pooled.eigenvalues)
        assert largest_principal_angle(
            inline.state.basis, pooled.state.basis
        ) < 1e-8

    def test_extra_components_reduce_truncation_error(self, small_data):
        full = BatchPCA(3).fit(small_data)
        errs = []
        for extra in (0, 4):
            mr = mapreduce_pca(
                small_data, 3, n_partitions=8, robust=False,
                extra_components=extra,
            )
            errs.append(
                float(np.abs(mr.eigenvalues - full.eigenvalues_).sum())
            )
        assert errs[1] <= errs[0] + 1e-9

    def test_components_shape(self, small_data):
        mr = mapreduce_pca(small_data, 2, n_partitions=3, robust=False)
        assert mr.components.shape == (2, 40)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="\\(n, d\\)"):
            mapreduce_pca(np.zeros(5), 2)
        with pytest.raises(ValueError, match="n_partitions"):
            mapreduce_pca(np.zeros((10, 3)), 2, n_partitions=0)
        with pytest.raises(ValueError, match="n_workers"):
            mapreduce_pca(np.zeros((10, 3)), 2, n_workers=0)
        with pytest.raises(ValueError, match="not enough rows"):
            mapreduce_pca(np.zeros((1, 3)), 2, n_partitions=2)
