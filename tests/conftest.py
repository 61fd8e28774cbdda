import numpy as np
import pytest

from crl import BinaryDataset, PredictionVector, Rule, RuleList


@pytest.fixture
def d4():
    """The canonical 4-row worked example.

    Rows i0..i3 with features (1,0,1),(1,1,0),(0,1,1),(0,0,0), labels
    (1,0,1,0), black-box predictions (1,0,0,1); list r1=({f0},1), r2=({f1},1).
    Hand-derived: blackbox accuracy 0.5, curve (0,.5),(.5,.25),(.75,.5),
    area 0.28125.
    """
    matrix = np.array(
        [[1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=bool
    )
    labels = np.array([1, 0, 1, 0], dtype=np.uint8)
    bb = np.array([1, 0, 0, 1], dtype=np.uint8)
    data = BinaryDataset.from_bool_matrix(matrix, labels, ("f0", "f1", "f2"))
    preds = PredictionVector(bb)
    rule_list = RuleList((Rule((0,), 1), Rule((1,), 1)))
    return data, preds, rule_list


def make_random_dataset(seed, n_rows=40, n_features=6, p=0.5, label_rate=0.5):
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_rows, n_features)) < p
    labels = (rng.random(n_rows) < label_rate).astype(np.uint8)
    names = tuple(f"f{i}" for i in range(n_features))
    return BinaryDataset.from_bool_matrix(matrix, labels, names)


def make_random_preds(seed, data, accuracy=0.7):
    rng = np.random.default_rng(seed)
    keep = rng.random(data.n_rows) < accuracy
    labels = np.frombuffer(data.labels, dtype=np.uint8)
    preds = np.where(keep, labels, 1 - labels).astype(np.uint8)
    return PredictionVector(preds)

