"""Dataset constructors, the task rule, IDX ingestion, and CSV and JSON output."""

import gc
import hashlib
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from ntkreg.data import (
    TASK_BINARY,
    TASK_MULTICLASS,
    TASK_REGRESSION,
    DataSet,
    load_mnist_binary,
    predicted_classes,
    prediction_error,
    split_dataset,
    _write_csv,
    _write_json,
    synth_multiclass,
    synth_sphere,
)
from ntkreg.errors import (
    DataFormatError,
    EmptyDatasetError,
    ValidationError,
)


def write_idx_pair(tmp_path, labels, rng, rows=28, cols=28, image_magic=0x803, label_magic=0x801):
    """Assemble IDX files byte by byte, independent of the loader under test."""
    labels = np.asarray(labels, dtype=np.uint8)
    n = labels.size
    pixels = rng.integers(1, 256, size=(n, rows * cols), endpoint=False).astype(np.uint8)
    image_path = tmp_path / "images.idx"
    label_path = tmp_path / "labels.idx"
    with open(image_path, "wb") as f:
        f.write(struct.pack(">IIII", image_magic, n, rows, cols))
        f.write(pixels.tobytes())
    with open(label_path, "wb") as f:
        f.write(struct.pack(">II", label_magic, n))
        f.write(labels.tobytes())
    return image_path, label_path, pixels


class TestMnistLoader:
    def test_shape_and_label_contract(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = np.array([5, 8, 3, 5, 8, 8, 5, 1, 8, 5])
        images, lab, _ = write_idx_pair(tmp_path, labels, rng)
        ds = load_mnist_binary(images, lab, 5, 8, limit=6)
        assert ds.n == 6
        assert ds.d == 28 * 28
        assert set(np.unique(ds.clean_labels)) <= {1.0, -1.0}
        assert np.array_equal(ds.clean_labels, ds.noisy_labels)
        norms = np.linalg.norm(ds.inputs, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_same_class_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        images, lab, _ = write_idx_pair(tmp_path, [5, 8, 5, 8], rng)
        with pytest.raises(ValidationError):
            load_mnist_binary(images, lab, 5, 5)

    @pytest.mark.parametrize("limit", [0, -1, 2.0, True])
    def test_limit_is_an_integer_of_at_least_one(self, tmp_path, limit):
        # a limit of -1 kept all but the last of the five matching examples
        images, lab, _ = write_idx_pair(tmp_path, [5, 8, 5, 8, 5], np.random.default_rng(1), rows=2, cols=2)
        assert load_mnist_binary(images, lab, 5, 8, limit=5).n == 5
        with pytest.raises(ValidationError, match="limit"):
            load_mnist_binary(images, lab, 5, 8, limit=limit)

    def test_byte_level_reread_oracle(self, tmp_path):
        # Re-parse the files with plain struct/frombuffer and replay the
        # selection rule; the loader must agree example by example.
        rng = np.random.default_rng(2)
        raw_labels = np.array([9, 5, 8, 8, 5, 0, 5, 8, 2, 5, 8, 5], dtype=np.uint8)
        images, lab, pixels = write_idx_pair(tmp_path, raw_labels, rng)
        ds = load_mnist_binary(images, lab, 5, 8, limit=10)

        buf = Path(lab).read_bytes()
        magic, count = struct.unpack(">II", buf[:8])
        oracle_labels = np.frombuffer(buf[8 : 8 + count], dtype=np.uint8)
        keep = np.flatnonzero((oracle_labels == 5) | (oracle_labels == 8))[:10]
        assert ds.n == keep.size
        expected_sign = np.where(oracle_labels[keep] == 5, 1.0, -1.0)
        assert np.array_equal(ds.clean_labels, expected_sign)

        ibuf = Path(images).read_bytes()
        _, icount, r, c = struct.unpack(">IIII", ibuf[:16])
        oracle_pixels = np.frombuffer(ibuf[16:], dtype=np.uint8).reshape(icount, r * c)
        for row, raw_idx in enumerate(keep):
            raw = oracle_pixels[raw_idx].astype(np.float64) / 255.0
            raw /= np.linalg.norm(raw)
            assert np.allclose(ds.inputs[row], raw, rtol=0, atol=1e-15)

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(3)
        images, lab, _ = write_idx_pair(tmp_path, [5, 8], rng, image_magic=0x123)
        with pytest.raises(DataFormatError):
            load_mnist_binary(images, lab, 5, 8)

    def test_truncated_pixels(self, tmp_path):
        rng = np.random.default_rng(4)
        images, lab, _ = write_idx_pair(tmp_path, [5, 8, 5], rng)
        data = Path(images).read_bytes()
        with open(images, "wb") as f:
            f.write(data[:-100])
        with pytest.raises(DataFormatError):
            load_mnist_binary(images, lab, 5, 8)

    def test_too_few_usable_examples(self, tmp_path):
        rng = np.random.default_rng(5)
        images, lab, _ = write_idx_pair(tmp_path, [1, 2, 3, 5], rng)
        with pytest.raises(EmptyDatasetError):
            load_mnist_binary(images, lab, 5, 8)

    def test_deterministic(self, tmp_path):
        rng = np.random.default_rng(6)
        images, lab, _ = write_idx_pair(tmp_path, [5, 8, 5, 8, 8], rng)
        a = load_mnist_binary(images, lab, 5, 8)
        b = load_mnist_binary(images, lab, 5, 8)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.clean_labels, b.clean_labels)

    @pytest.mark.parametrize("image_magic", [0x803, 0x123], ids=["good-header", "bad-magic"])
    def test_files_are_closed(self, tmp_path, image_magic):
        # an unclosed file warns when it is collected; a bad header must not leave one either
        images, lab, _ = write_idx_pair(tmp_path, [5, 8, 5], np.random.default_rng(7), image_magic=image_magic)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                load_mnist_binary(images, lab, 5, 8)
            except DataFormatError:
                assert image_magic != 0x803
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestSynthSphere:
    def test_determinism_and_norms(self):
        a = synth_sphere(4, 3, "linear-sign", seed=7)
        b = synth_sphere(4, 3, "linear-sign", seed=7)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.clean_labels, b.clean_labels)
        assert np.max(np.abs(np.linalg.norm(a.inputs, axis=1) - 1.0)) <= 1e-12

    def test_label_balance(self):
        # Monte-Carlo frequency oracle: sgn(w.x) on the sphere is a fair coin.
        ds = synth_sphere(1000, 10, "linear-sign", seed=1)
        positives = int(np.sum(ds.clean_labels == 1.0))
        assert 450 <= positives <= 550

    def test_smooth_targets_clamped(self):
        for seed in range(5):
            ds = synth_sphere(200, 6, "smooth-poly", seed=seed)
            assert ds.task == "regression"
            assert ds.clean_labels.min() >= -1.0
            assert ds.clean_labels.max() <= 1.0

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            synth_sphere(0, 3, "linear-sign", seed=0)
        with pytest.raises(ValidationError):
            synth_sphere(5, 1, "linear-sign", seed=0)
        with pytest.raises(ValidationError):
            synth_sphere(5, 3, "no-such-target", seed=0)


class TestDataSetInvariants:
    def test_rejects_nonfinite_inputs(self):
        x = np.eye(3)
        x[0, 0] = np.nan
        with pytest.raises(ValidationError):
            DataSet(x, np.ones(3), np.ones(3), "binary")

    def test_rejects_bad_binary_labels(self):
        with pytest.raises(ValidationError):
            DataSet(np.eye(3), np.array([1.0, 0.5, -1.0]), np.ones(3), "binary")

    def test_rejects_unnormalized_when_flagged(self):
        with pytest.raises(ValidationError):
            DataSet(2.0 * np.eye(3), np.ones(3), np.ones(3), "binary")
        # and accepts them when the flag is off
        DataSet(2.0 * np.eye(3), np.ones(3), np.ones(3), "binary", normalized=False)

    def test_multiclass_label_range(self):
        x = np.eye(4)
        DataSet(x, np.array([1, 2, 3, 3]), np.array([1, 2, 3, 3]), "multiclass", num_classes=3)
        with pytest.raises(ValidationError):
            DataSet(x, np.array([0, 2, 3, 3]), np.array([1, 2, 3, 3]), "multiclass", num_classes=3)

    @pytest.mark.parametrize("bad", [[1.7, 2.2, 3.9], [1.0, 2.5, 3.0], [1.0, np.nan, 3.0],
                                     [1.0, np.inf, 3.0], [-np.inf, 2.0, 3.0]],
                             ids=["fractions", "one-fraction", "nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("name", ["clean_labels", "noisy_labels"])
    def test_multiclass_labels_must_be_integral(self, name, bad):
        # a cast would truncate 1.7 to class 1, and warn on NaN before any check
        labels = {"clean_labels": [1, 2, 3], "noisy_labels": [1, 2, 3], name: bad}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"{name} must be integer class ids"):
                DataSet(np.eye(3), labels["clean_labels"], labels["noisy_labels"], "multiclass", num_classes=3)

    def test_integral_float_class_ids_accepted(self):
        ds = DataSet(np.eye(3), [1.0, 2.0, 3.0], np.array([3.0, 2.0, 1.0]), "multiclass", num_classes=3)
        assert ds.clean_labels.dtype == ds.noisy_labels.dtype == np.int64
        assert ds.clean_labels.tolist() == [1, 2, 3] and ds.noisy_labels.tolist() == [3, 2, 1]

    def test_split(self):
        ds = synth_sphere(10, 4, "linear-sign", seed=0)
        train, test = split_dataset(ds, 7)
        assert train.n == 7 and test.n == 3
        assert np.array_equal(np.vstack([train.inputs, test.inputs]), ds.inputs)
        with pytest.raises(ValidationError):
            split_dataset(ds, 10)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: synth_multiclass(6, 3, 2.0, 0), "classes"),
        (lambda: synth_multiclass(6.0, 3, 2, 0), "n"),
        (lambda: synth_sphere(2.5, 3, "linear-sign", 0), "n"),
        (lambda: synth_sphere(5, 3.0, "linear-sign", 0), "d"),
        (lambda: split_dataset(synth_sphere(5, 3, "linear-sign", 0), 2.5), "n_train"),
        (lambda: split_dataset(synth_sphere(5, 3, "linear-sign", 0), True), "n_train"),
        (lambda: DataSet(np.eye(3), [1, 2, 2], [1, 2, 2], "multiclass", num_classes=2.0), "num_classes"),
    ],
    ids=["multiclass-classes", "multiclass-n", "sphere-n", "sphere-d", "split-float", "split-bool", "dataset-classes"],
)
def test_counts_are_integers(make, name):
    # a float class count made a DataSet whose fit_targets raised TypeError,
    # float sizes raised TypeError from numpy, and a bool n_train was taken as 1
    with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
        make()


class TestSynthMulticlass:
    def test_draws_are_bit_stable(self):
        # digests of the draw that the CLI's synth-multiclass datasets have
        # always used: inputs first, then the direction w; the inputs are
        # hashed behind a (n, d) header
        ds = synth_multiclass(61, 7, 4, seed=11)
        inputs = hashlib.sha256(struct.pack("<QQ", ds.n, ds.d) + ds.inputs.astype("<f8").tobytes())
        assert inputs.hexdigest() == (
            "7fec36010fd1c21222600a9f7515613051bd9acab580eb29ba36c5c36bf93ed6"
        )
        labels = hashlib.sha256(ds.clean_labels.astype("<i8").tobytes()).hexdigest()
        assert labels == "c444b2f87cf6b2f0ee7fc10d9314e61ca40b3ac197b5c7238d18d70abc9854fa"

    @pytest.mark.parametrize("n, classes", [(61, 4), (30, 3), (100, 7)])
    def test_classes_are_balanced(self, n, classes):
        ds = synth_multiclass(n, 5, classes, seed=2)
        counts = np.bincount(ds.clean_labels, minlength=classes + 1)[1:]
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1
        assert ds.task == TASK_MULTICLASS and ds.num_classes == classes

    def test_exported_from_package(self):
        import ntkreg

        assert ntkreg.synth_multiclass is synth_multiclass


TIE3 = [[0.2, 0.2, 0.1], [0.0, 0.3, 0.3], [0.1, 0.0, 0.9]]


class TestTaskRule:
    @pytest.mark.parametrize(
        "outputs, labels, task, expected",
        [
            # an output of exactly 0 is wrong for either binary label
            ([0.0, 0.0], [1.0, -1.0], TASK_BINARY, 1.0),
            ([0.5, -0.5, 2.0, -1.0], [1.0, 1.0, 1.0, -1.0], TASK_BINARY, 0.25),
            ([[0.5], [-0.5], [2.0], [-1.0]], [1.0, 1.0, 1.0, -1.0], TASK_BINARY, 0.25),
            # argmax ties go to the lowest class: predictions 1, 2, 3
            (TIE3, [1, 3, 3], TASK_MULTICLASS, 1.0 / 3.0),
            (TIE3, [1, 2, 3], TASK_MULTICLASS, 0.0),
            ([0.5, -1.0], [0.0, 1.0], TASK_REGRESSION, 2.125),
            ([[0.5], [-1.0]], [0.0, 1.0], TASK_REGRESSION, 2.125),
        ],
    )
    def test_prediction_error(self, outputs, labels, task, expected):
        assert prediction_error(np.array(outputs), np.array(labels), task) == expected

    @pytest.mark.parametrize(
        "outputs, task, expected",
        [
            # the export rule: a binary output of 0 maps to +1
            ([0.0, -0.0, 1e-300, -2.0], TASK_BINARY, [1.0, 1.0, 1.0, -1.0]),
            ([[0.0], [-3.0]], TASK_BINARY, [1.0, -1.0]),
            (TIE3, TASK_MULTICLASS, [1, 2, 3]),
            ([0.1, 0.7, 0.7], TASK_MULTICLASS, [2]),  # one (K,) row is one query
        ],
    )
    def test_predicted_classes(self, outputs, task, expected):
        assert np.array_equal(predicted_classes(np.array(outputs), task), expected)

    @pytest.mark.parametrize(
        "outputs, labels, task",
        [
            # one scalar per example on a multiclass task: the shape that
            # once scored every example as wrong
            (np.ones(4), np.array([1, 2, 3, 1]), TASK_MULTICLASS),
            (np.ones((4, 2)), np.ones(4), TASK_BINARY),
            (np.ones(3), np.ones(4), TASK_REGRESSION),
        ],
    )
    def test_mismatched_shapes_rejected(self, outputs, labels, task):
        with pytest.raises(ValidationError):
            prediction_error(outputs, labels, task)

    def test_regression_has_no_classes(self):
        with pytest.raises(ValidationError):
            predicted_classes(np.ones(3), TASK_REGRESSION)

    def test_outputs_and_fit_targets(self):
        multi = synth_multiclass(12, 4, 3, seed=0)
        assert multi.num_outputs == 3
        targets = multi.fit_targets()
        assert targets.shape == (3, 12)
        assert np.array_equal(targets.sum(axis=0), np.ones(12))
        assert np.array_equal(predicted_classes(targets.T, TASK_MULTICLASS), multi.noisy_labels)
        for target in ("linear-sign", "smooth-poly"):
            single = synth_sphere(12, 4, target, seed=0)
            assert single.num_outputs == 1
            assert single.fit_targets().dtype == np.float64
            assert np.array_equal(single.fit_targets(), single.noisy_labels)


class TestPayloadWriters:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(1, 0.1, None, np.float64(2.0)), (np.int64(3), -0.0, "x", 1e-300),
                (float("nan"), np.float64("nan"), float("inf"), -np.float64("inf")),
                (np.float64(0.1), np.float64(-0.0), True, 12345678901234567890)]
        _write_csv(path, ["a", "b", "c", "d"], rows)
        assert Path(path).read_text() == ("a,b,c,d\n1,0.1,,2.0\n3,-0.0,x,1e-300\nnan,nan,inf,-inf\n"
                                          "0.1,-0.0,True,12345678901234567890\n")

    def test_json_layout(self, tmp_path):
        path = tmp_path / "t.json"
        _write_json(path, {"b": 1, "a": [0.5]})
        assert Path(path).read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'
