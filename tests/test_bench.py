"""Reduced experiment: data path, model, PGD loop, reduction checks."""

import gzip
import struct

import numpy as np
import pytest

from robustlift.bench import (
    MODE_ALPHA,
    BenchDataError,
    ReducedDataset,
    ReducedModel,
    ReducedTask,
    area_average_pool,
    compare_reduction,
    load_mnist_reduced,
    pgd_attack,
    pgd_evaluate,
    plateau_ratio,
    random_projection,
    read_idx_images,
    read_idx_labels,
    synthetic_blob_images,
    train_reduced,
    write_metrics_csv,
)
from robustlift.instances import folded_demo_instance

RNG = np.random.default_rng(61)


def small_task(**kw):
    args = dict(n_steps=30, log_every=10, eval_size=60, batch_size=5)
    args.update(kw)
    return ReducedTask(**args)


@pytest.fixture(scope="module")
def dataset():
    return load_mnist_reduced(limit=400, seed=0)


def write_idx(tmp_path, images, labels, gz=False):
    imgs = np.asarray(images, dtype=np.uint8)
    labs = np.asarray(labels, dtype=np.uint8)
    opener = gzip.open if gz else open
    suffix = ".gz" if gz else ""
    ipath = tmp_path / f"train-images-idx3-ubyte{suffix}"
    lpath = tmp_path / f"train-labels-idx1-ubyte{suffix}"
    with opener(ipath, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, *imgs.shape))
        fh.write(imgs.tobytes())
    with opener(lpath, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labs)))
        fh.write(labs.tobytes())
    return ipath, lpath


class TestDataPath:
    def test_zero_image_gives_zero_features(self):
        pooled = area_average_pool(np.zeros((3, 28, 28)))
        assert not pooled.any()
        proj = random_projection(seed=0)
        assert not (pooled.reshape(3, -1) @ proj.T).any()

    def test_pool_preserves_constants(self):
        pooled = area_average_pool(np.full((2, 28, 28), 0.7))
        np.testing.assert_allclose(pooled, 0.7, atol=1e-12)

    def test_pool_exact_on_integer_ratio(self):
        img = RNG.uniform(0, 1, (1, 24, 24))
        pooled = area_average_pool(img, out_side=12)
        manual = img.reshape(1, 12, 2, 12, 2).mean(axis=(2, 4))
        np.testing.assert_allclose(pooled, manual, atol=1e-12)

    def test_labels_restricted_to_low_digits(self, dataset):
        assert set(np.unique(dataset.labels)) <= {0, 1, 2, 3, 4}
        counts = dataset.metadata["counts"]
        for d, c in counts.items():
            assert c == int((dataset.labels == d).sum())

    def test_feature_shape_and_source(self, dataset):
        assert dataset.features.shape == (400, 10)
        assert dataset.metadata["source"] == "synthetic"
        assert dataset.metadata["feature_dim"] == 144

    def test_projection_seeded(self):
        np.testing.assert_array_equal(random_projection(3),
                                      random_projection(3))
        assert random_projection(3).shape == (10, 144)

    def test_synthetic_blobs_shape(self):
        images, labels = synthetic_blob_images(seed=1)
        assert images.shape == (2000, 12, 12)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert sorted(set(labels)) == [0, 1, 2, 3, 4]

    def test_idx_roundtrip(self, tmp_path):
        images = RNG.integers(0, 256, (6, 28, 28)).astype(np.uint8)
        labels = np.array([0, 1, 2, 3, 4, 2], dtype=np.uint8)
        ipath, lpath = write_idx(tmp_path, images, labels)
        np.testing.assert_array_equal(read_idx_images(str(ipath)), images)
        np.testing.assert_array_equal(read_idx_labels(str(lpath)), labels)

    def test_idx_gzip_roundtrip(self, tmp_path):
        images = RNG.integers(0, 256, (3, 28, 28)).astype(np.uint8)
        labels = np.array([1, 0, 3], dtype=np.uint8)
        ipath, lpath = write_idx(tmp_path, images, labels, gz=True)
        np.testing.assert_array_equal(read_idx_images(str(ipath)), images)
        np.testing.assert_array_equal(read_idx_labels(str(lpath)), labels)

    def test_loader_reads_idx_directory(self, tmp_path):
        images = RNG.integers(0, 256, (8, 28, 28)).astype(np.uint8)
        labels = np.array([0, 1, 2, 3, 4, 7, 8, 9], dtype=np.uint8)
        write_idx(tmp_path, images, labels)
        ds = load_mnist_reduced(str(tmp_path))
        assert ds.metadata["source"] == "idx"
        # digits above 4 filtered out
        assert len(ds) == 5
        assert ds.features.shape == (5, 10)

    def test_bad_magic_raises(self, tmp_path):
        ipath, _ = write_idx(tmp_path, np.zeros((2, 4, 4), dtype=np.uint8),
                             np.zeros(2, dtype=np.uint8))
        raw = bytearray(ipath.read_bytes())
        raw[3] = 0x09
        ipath.write_bytes(bytes(raw))
        with pytest.raises(BenchDataError):
            load_mnist_reduced(str(tmp_path))

    def test_truncated_payload_raises(self, tmp_path):
        ipath, _ = write_idx(tmp_path, np.zeros((2, 4, 4), dtype=np.uint8),
                             np.zeros(2, dtype=np.uint8))
        ipath.write_bytes(ipath.read_bytes()[:-5])
        with pytest.raises(BenchDataError):
            read_idx_images(str(ipath))

    def test_missing_directory_falls_back(self, tmp_path):
        ds = load_mnist_reduced(str(tmp_path / "nowhere"), limit=50)
        assert ds.metadata["source"] == "synthetic"


class TestModelAndAttack:
    def test_parameter_count_is_sixty(self):
        model = ReducedModel.init(seed=0)
        assert model.param_count == 60

    def test_gradients_match_finite_differences(self, dataset):
        model = ReducedModel.init(seed=2)
        x, y = dataset.features[:8], dataset.labels[:8]
        loss, g_w1, g_w2, g_x = model.loss_and_grads(x, y,
                                                     want_input_grad=True)
        h = 1e-6
        for grad, attr in ((g_w1, "w1"), (g_w2, "w2")):
            w = getattr(model, attr)
            idx = np.unravel_index(np.abs(grad).argmax(), grad.shape)
            bumped = w.copy()
            bumped[idx] += h
            setattr(model, attr, bumped)
            up, _, _, _ = model.loss_and_grads(x, y)
            setattr(model, attr, w)
            assert (up - loss) / h == pytest.approx(grad[idx], rel=1e-3)
        xb = x.copy()
        xb[0, 0] += h
        up, _, _, _ = model.loss_and_grads(xb, y)
        assert (up - loss) / h == pytest.approx(g_x[0, 0], rel=1e-3)

    def test_attack_stays_in_ball(self, dataset):
        model = ReducedModel.init(seed=1)
        delta = pgd_attack(model, dataset.features[:32], dataset.labels[:32],
                           eps=0.025, step=0.01, steps=10)
        assert np.abs(delta).max() <= 0.025 + 1e-15

    def test_attack_does_not_decrease_loss(self, dataset):
        model = ReducedModel.init(seed=1)
        x, y = dataset.features[:64], dataset.labels[:64]
        clean, _, _, _ = model.loss_and_grads(x, y)
        delta = pgd_attack(model, x, y, eps=0.025, step=0.01, steps=10)
        attacked, _, _, _ = model.loss_and_grads(x + delta, y)
        assert attacked >= clean - 1e-12

    def test_zero_budget_matches_clean(self, dataset):
        model = ReducedModel.init(seed=3)
        eval_set = ReducedDataset(dataset.features[:100],
                                  dataset.labels[:100], dataset.metadata)
        clean = model.accuracy(eval_set.features, eval_set.labels)
        assert pgd_evaluate(model, eval_set, eps=0.0) == clean
        assert pgd_evaluate(model, eval_set, steps=0) == clean


class TestTraining:
    def test_modes_map_to_alpha(self):
        assert MODE_ALPHA == {"clean": 0.0, "mixed": 0.5, "robust": 1.0}
        with pytest.raises(ValueError):
            train_reduced(small_task(), "hardened", None)

    def test_logs_on_schedule(self, dataset):
        out = train_reduced(small_task(), "clean", dataset, seed=0)
        assert [r.step for r in out.rows] == [0, 10, 20, 30]
        assert not out.diverged
        assert out.metadata["activation"] == "tanh"
        assert out.metadata["loss"] == "softmax-cross-entropy"

    def test_equal_seeds_bitwise_identical(self, dataset, tmp_path):
        a = train_reduced(small_task(), "mixed", dataset, seed=5)
        b = train_reduced(small_task(), "mixed", dataset, seed=5)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(str(pa), a.rows)
        write_metrics_csv(str(pb), b.rows)
        assert pa.read_bytes() == pb.read_bytes()
        np.testing.assert_array_equal(a.model.w1, b.model.w1)

    def test_zero_learning_rate_freezes_metrics(self, dataset):
        out = train_reduced(small_task(learning_rate=0.0), "robust",
                            dataset, seed=2)
        first = out.rows[0]
        for row in out.rows[1:]:
            assert row.clean_acc == first.clean_acc
            assert row.robust_acc == first.robust_acc
            assert row.clean_loss == first.clean_loss

    def test_robust_not_above_clean_accuracy(self, dataset):
        out = train_reduced(small_task(n_steps=200, log_every=100), "clean",
                            dataset, seed=0)
        for row in out.rows:
            assert row.robust_acc <= row.clean_acc + 1e-12

    def test_csv_header(self, dataset, tmp_path):
        out = train_reduced(small_task(), "clean", dataset, seed=0)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(str(path), out.rows)
        header = path.read_text().splitlines()[0]
        assert header == "step,mode,alpha,clean_acc,robust_acc,clean_loss"


class TestPlateau:
    def test_constant_series(self):
        assert plateau_ratio(np.ones(20)) == 0.0

    def test_settling_series_is_small(self):
        values = np.concatenate([np.linspace(0, 1, 40),
                                 np.ones(10) + 1e-9 * RNG.standard_normal(10)])
        assert plateau_ratio(values) < 0.1

    def test_late_noise_is_large(self):
        values = np.concatenate([np.zeros(40), RNG.standard_normal(10)])
        assert plateau_ratio(values) == np.inf

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            plateau_ratio([1.0, 2.0, 3.0])


class TestReduction:
    def test_demo_instance_within_bounds(self):
        report = compare_reduction(folded_demo_instance(), 0.05, 0.05,
                                   n_levels=4)
        assert report.step_ok
        assert report.truncation_ok
        assert report.step_error_max <= report.step_error_bound
        assert report.stacked_truncation_error <= \
            report.stacked_truncation_bound
        assert report.solve_residual <= 1e-12
        assert report.rho < 1.0

    def test_larger_cutoff_shrinks_tail(self):
        small = compare_reduction(folded_demo_instance(), 0.05, 0.05,
                                  n_levels=3)
        large = compare_reduction(folded_demo_instance(), 0.05, 0.05,
                                  n_levels=5)
        assert large.gamma_n <= small.gamma_n
