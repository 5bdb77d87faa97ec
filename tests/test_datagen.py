"""Dataset generation, split protocols, dataset file format."""

import numpy as np
import pytest

from fuselab import (
    ConfigurationError,
    Dataset,
    ParseError,
    SplitKind,
    SplitSpec,
    ValidationError,
    generate,
    load_dataset,
    save_dataset,
    split,
)
from fuselab.datagen import CLASS_MARGIN


class TestGenerate:
    def test_same_seed_same_data(self):
        a = generate(2, 50, 2, seed=7)
        b = generate(2, 50, 2, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_different_data(self):
        a = generate(2, 50, 2, seed=7)
        b = generate(2, 50, 2, seed=8)
        assert not np.array_equal(a.features, b.features)

    def test_shapes_and_counts(self):
        ds = generate(4, 30, 5, seed=0)
        assert ds.features.shape == (120, 5)
        assert ds.labels.shape == (120,)
        counts = np.bincount(ds.labels, minlength=4)
        np.testing.assert_array_equal(counts, [30, 30, 30, 30])

    def test_class_means_near_scaled_unit_centers(self):
        # law of large numbers: per-class sample means approach the centers,
        # which all sit at distance CLASS_MARGIN from the origin
        ds = generate(3, 4000, 6, seed=3)
        for k in range(3):
            mean = ds.features[ds.labels == k].mean(axis=0)
            assert abs(np.linalg.norm(mean) - CLASS_MARGIN) < 0.1

    def test_salt_keeps_centers_but_changes_noise(self):
        a = generate(3, 2000, 6, seed=3)
        b = generate(3, 2000, 6, seed=3, sample_salt=1)
        assert not np.array_equal(a.features[:10], b.features[:10])
        for k in range(3):
            ma = a.features[a.labels == k].mean(axis=0)
            mb = b.features[b.labels == k].mean(axis=0)
            assert np.linalg.norm(ma - mb) < 0.15

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            generate(1, 10, 2, seed=0)
        with pytest.raises(ConfigurationError):
            generate(2, 0, 2, seed=0)

    @pytest.mark.parametrize(
        "args, field",
        [((2.0, 5, 2, 0), "num_classes"), ((3, 2.5, 4, 0), "per_class"),
         ((3, 2, 4.0, 0), "dim"), ((3, 2, 4, 1.5), "seed"),
         ((3, 2, 4, 0, 1.0), "sample_salt")],
    )
    def test_non_integer_count_is_named(self, args, field):
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be an integer, got"):
            generate(*args)

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"seed": -1}, "seed"), ({"seed": 0, "sample_salt": -1}, "sample_salt")],
    )
    def test_negative_seed_is_named(self, kwargs, field):
        with pytest.raises(ConfigurationError, match=f"^{field} must be >= 0"):
            generate(2, 5, 2, **kwargs)


def _assert_partition(ds, part1, part2):
    assert part1.m + part2.m == ds.m
    merged = np.vstack([part1.features, part2.features])
    # every original row appears exactly once across the two parts
    order = np.lexsort(ds.features.T)
    order_m = np.lexsort(merged.T)
    np.testing.assert_array_equal(ds.features[order], merged[order_m])


class TestSplits:
    def test_negative_seed_is_named(self):
        with pytest.raises(ConfigurationError, match="^split seed must be >= 0"):
            SplitSpec(SplitKind.EIGHTY_TWENTY, seed=-5)

    def test_kind_must_be_a_split_kind(self):
        with pytest.raises(ConfigurationError,
                           match="unknown split kind 'full'"):
            SplitSpec("full")

    def test_full_gives_everything_to_both(self):
        ds = generate(4, 20, 3, seed=1)
        p1, p2 = split(ds, SplitSpec(SplitKind.FULL))
        np.testing.assert_array_equal(p1.features, ds.features)
        np.testing.assert_array_equal(p2.features, ds.features)

    def test_eighty_twenty_counts(self):
        ds = generate(4, 100, 3, seed=2)
        p1, p2 = split(ds, SplitSpec(SplitKind.EIGHTY_TWENTY, seed=5))
        for k, expect in ((0, 80), (1, 80), (2, 20), (3, 20)):
            assert int((p1.labels == k).sum()) == expect
            assert int((p2.labels == k).sum()) == 100 - expect
        _assert_partition(ds, p1, p2)

    def test_eighty_twenty_deterministic(self):
        ds = generate(4, 100, 3, seed=2)
        a1, a2 = split(ds, SplitSpec(SplitKind.EIGHTY_TWENTY, seed=5))
        b1, b2 = split(ds, SplitSpec(SplitKind.EIGHTY_TWENTY, seed=5))
        np.testing.assert_array_equal(a1.features, b1.features)
        np.testing.assert_array_equal(a2.features, b2.features)

    def test_eighty_twenty_needs_even_classes(self):
        ds = generate(3, 10, 2, seed=0)
        with pytest.raises(ConfigurationError):
            split(ds, SplitSpec(SplitKind.EIGHTY_TWENTY, seed=0))

    def test_dirichlet_partitions(self):
        ds = generate(4, 50, 3, seed=9)
        p1, p2 = split(ds, SplitSpec(SplitKind.DIRICHLET, seed=4, alpha=(0.5, 0.5)))
        _assert_partition(ds, p1, p2)

    def test_dirichlet_deterministic(self):
        ds = generate(4, 50, 3, seed=9)
        spec = SplitSpec(SplitKind.DIRICHLET, seed=4, alpha=(0.5, 0.5))
        a1, _ = split(ds, spec)
        b1, _ = split(ds, spec)
        np.testing.assert_array_equal(a1.features, b1.features)

    def test_dirichlet_alpha_validated(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(SplitKind.DIRICHLET, seed=0, alpha=(0.5,))
        with pytest.raises(ConfigurationError):
            SplitSpec(SplitKind.DIRICHLET, seed=0, alpha=(0.5, -1.0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigurationError):
                SplitSpec(SplitKind.DIRICHLET, seed=0, alpha=(bad, 1.0))

    def test_disjoint_classes(self):
        ds = generate(4, 25, 3, seed=6)
        p1, p2 = split(ds, SplitSpec(SplitKind.DISJOINT_CLASSES, seed=3))
        classes1 = set(np.unique(p1.labels))
        classes2 = set(np.unique(p2.labels))
        assert len(classes1) == 2 and len(classes2) == 2
        assert classes1.isdisjoint(classes2)
        assert classes1 | classes2 == {0, 1, 2, 3}
        _assert_partition(ds, p1, p2)

    def test_disjoint_needs_even_classes(self):
        ds = generate(3, 10, 2, seed=0)
        with pytest.raises(ConfigurationError):
            split(ds, SplitSpec(SplitKind.DISJOINT_CLASSES, seed=0))


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        ds = generate(4, 12, 5, seed=21)
        path = tmp_path / "d.ds"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes
        assert back.seed == ds.seed

    def test_label_payload_is_uint32(self, tmp_path):
        ds = generate(2, 3, 2, seed=0)
        path = tmp_path / "d.ds"
        save_dataset(ds, path)
        raw = path.read_bytes()
        header_end = raw.index(b"end\n") + 4
        payload = raw[header_end:]
        assert len(payload) == ds.m * ds.dim * 8 + ds.m * 4

    def test_truncated_rejected(self, tmp_path):
        ds = generate(2, 3, 2, seed=0)
        path = tmp_path / "d.ds"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_failed_save_leaves_existing_file(self, tmp_path):
        path = tmp_path / "d.ds"
        save_dataset(generate(2, 3, 2, seed=0), path)
        before = path.read_bytes()
        broken = generate(2, 3, 2, seed=1)
        object.__setattr__(broken, "labels", np.array(["x"] * 6, dtype=object))
        with pytest.raises(ValueError):
            save_dataset(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.ds"]

    def test_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "absent" / "d.ds"
        with pytest.raises(ConfigurationError, match="cannot write .*d.ds"):
            save_dataset(generate(2, 3, 2, seed=0), path)

    def test_negative_seed_is_named(self):
        with pytest.raises(ConfigurationError,
                           match="^seed must be >= 0, got -1$"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), 2, seed=-1)

    @pytest.mark.parametrize("labels", [[0.5, 1.2], [0.0, 1.000001]])
    def test_non_integral_labels_rejected(self, labels):
        # numpy's int64 cast would truncate them to [0, 1]
        with pytest.raises(ValidationError, match="^labels must be integers$"):
            Dataset(np.zeros((2, 1)), labels, 2, 0)

    def test_integral_float_labels_accepted(self):
        ds = Dataset(np.zeros((2, 1)), [0.0, 1.0], 2, 0)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1]

    def test_labels_validated_against_classes(self):
        with pytest.raises(Exception):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2, 0)
