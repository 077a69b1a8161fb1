"""Small self-contained ML suite: majority baseline, categorical naive
Bayes, and k-nearest-neighbour.

Every number here is hand-checkable: naive Bayes uses Laplace smoothing over
the observed category vocabulary plus one unseen-category bucket, kNN
normalizes numerics to [0,1] (clamping out-of-range queries) and scores
categorical mismatches 0/1.  kNN normalizes and canonicalizes its training
rows once, at training time, and prepares each query the same way before
measuring distances.  All tie-breaks are explicit so predictions are
invariant under training-set permutation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import EmptyDataset, InvalidHyperparam, SchemaMismatch

ALGORITHMS = ("majority", "naive-bayes", "knn")


def canonical_category(value) -> str:
    """Stable category string for a feature value (numbers collapse: 72 == 72.0)."""
    if isinstance(value, bool):
        raise SchemaMismatch("boolean feature values are not supported")
    if isinstance(value, (int, float)):
        return format(value, "g")
    return str(value)


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[tuple[str, object], ...]  # (name, number-or-category)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.values)

    def kinds(self) -> tuple[str, ...]:
        out = []
        for _, v in self.values:
            if isinstance(v, bool):
                raise SchemaMismatch("boolean feature values are not supported")
            out.append("number" if isinstance(v, (int, float)) else "category")
        return tuple(out)

    def __getitem__(self, name: str):
        for n, v in self.values:
            if n == name:
                return v
        raise KeyError(name)


def feature_vector(pairs: Sequence[tuple[str, object]]) -> FeatureVector:
    return FeatureVector(tuple(pairs))


@dataclass(frozen=True)
class LabeledInstance:
    features: FeatureVector
    label: str


@dataclass(frozen=True)
class ModelConfig:
    analyzer: str
    algorithm: str
    hyperparams: Mapping[str, object]
    feature_schema: tuple[str, ...]

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidHyperparam(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "knn":
            k = self.hyperparams.get("k")
            if not isinstance(k, int) or k < 1 or k % 2 == 0:
                raise InvalidHyperparam(f"knn requires odd integer k >= 1, got {k!r}")
        if self.algorithm == "naive-bayes":
            alpha = self.hyperparams.get("alpha")
            if not isinstance(alpha, (int, float)) or alpha <= 0:
                raise InvalidHyperparam(f"naive-bayes requires alpha > 0, got {alpha!r}")


@dataclass(frozen=True)
class Prediction:
    label: str
    scores: Mapping[str, float]
    model_id: str


@dataclass
class TrainedModel:
    config: ModelConfig
    parameters: dict
    trained_on: int
    label_set: tuple[str, ...]
    kinds: tuple[str, ...]

    @property
    def model_id(self) -> str:
        return f"{self.config.analyzer}:{self.config.algorithm}:{self.trained_on}"


def _check_schema(fv: FeatureVector, schema: Sequence[str], kinds: Sequence[str] | None):
    if fv.names() != tuple(schema):
        raise SchemaMismatch(
            f"feature names {fv.names()} do not match schema {tuple(schema)}"
        )
    if kinds is not None and fv.kinds() != tuple(kinds):
        raise SchemaMismatch(
            f"feature kinds {fv.kinds()} do not match training kinds {tuple(kinds)}"
        )


# --- training ---------------------------------------------------------------

def train(data: Sequence[LabeledInstance], cfg: ModelConfig) -> TrainedModel:
    if not data:
        raise EmptyDataset("cannot train on an empty dataset")
    kinds = data[0].features.kinds()
    for inst in data:
        _check_schema(inst.features, cfg.feature_schema, None)
        if inst.features.kinds() != kinds:
            raise SchemaMismatch("mixed feature kinds across instances")

    labels = sorted({inst.label for inst in data})
    if cfg.algorithm == "majority":
        parameters = _train_majority(data)
    elif cfg.algorithm == "naive-bayes":
        parameters = _train_naive_bayes(data, cfg)
    else:
        parameters = _train_knn(data, cfg, kinds)
    return TrainedModel(cfg, parameters, len(data), tuple(labels), kinds)


def _train_majority(data: Sequence[LabeledInstance]) -> dict:
    counts: dict[str, int] = {}
    for inst in data:
        counts[inst.label] = counts.get(inst.label, 0) + 1
    return {"counts": counts}


def _train_naive_bayes(data: Sequence[LabeledInstance], cfg: ModelConfig) -> dict:
    class_counts: dict[str, int] = {}
    # feature name -> class -> category -> count
    likelihood_counts: dict[str, dict[str, dict[str, int]]] = {
        name: {} for name in cfg.feature_schema
    }
    vocab: dict[str, set[str]] = {name: set() for name in cfg.feature_schema}
    for inst in data:
        class_counts[inst.label] = class_counts.get(inst.label, 0) + 1
        for name, value in inst.features.values:
            cat = canonical_category(value)
            vocab[name].add(cat)
            per_class = likelihood_counts[name].setdefault(inst.label, {})
            per_class[cat] = per_class.get(cat, 0) + 1
    return {
        "classCounts": class_counts,
        "likelihoodCounts": likelihood_counts,
        "vocab": {name: sorted(v) for name, v in vocab.items()},
    }


def _train_knn(data: Sequence[LabeledInstance], cfg: ModelConfig, kinds) -> dict:
    k = cfg.hyperparams["k"]
    if k > len(data):
        raise InvalidHyperparam(f"k={k} exceeds dataset size {len(data)}")
    ranges: dict[str, tuple[float, float]] = {}
    for i, name in enumerate(cfg.feature_schema):
        if kinds[i] != "number":
            continue
        column = [float(inst.features[name]) for inst in data]
        ranges[name] = (min(column), max(column))
    rows = [_prepare(inst.features, cfg.feature_schema, kinds, ranges) for inst in data]
    # one column per feature, in schema order, so prediction works a feature at a time
    columns = [list(column) for column in zip(*rows)]
    return {"ranges": ranges, "columns": columns, "labels": [inst.label for inst in data]}


# --- prediction -------------------------------------------------------------

def predict(m: TrainedModel, x: FeatureVector) -> Prediction:
    _check_schema(x, m.config.feature_schema, m.kinds)
    if m.config.algorithm == "majority":
        return _predict_majority(m)
    if m.config.algorithm == "naive-bayes":
        return _predict_naive_bayes(m, x)
    return _predict_knn(m, x)


def _predict_majority(m: TrainedModel) -> Prediction:
    counts = m.parameters["counts"]
    total = sum(counts.values())
    scores = {label: counts.get(label, 0) / total for label in m.label_set}
    label = _argmax_lexicographic(scores)
    return Prediction(label, scores, m.model_id)


def _argmax_lexicographic(scores: Mapping[str, float]) -> str:
    return min(scores, key=lambda lab: (-scores[lab], lab))


def _predict_naive_bayes(m: TrainedModel, x: FeatureVector) -> Prediction:
    alpha = float(m.config.hyperparams["alpha"])
    class_counts = m.parameters["classCounts"]
    likelihood_counts = m.parameters["likelihoodCounts"]
    vocab = m.parameters["vocab"]
    n = sum(class_counts.values())
    n_classes = len(m.label_set)
    log_joint: dict[str, float] = {}
    # one extra vocabulary slot absorbs categories unseen in training
    query = [
        (name, canonical_category(value), len(vocab[name]) + 1)
        for name, value in x.values
    ]
    for label in m.label_set:
        c = class_counts.get(label, 0)
        logp = math.log((c + alpha) / (n + alpha * n_classes))
        for name, cat, bucket in query:
            # counts hold only training categories, so an unseen one reads 0
            count = likelihood_counts[name].get(label, {}).get(cat, 0)
            logp += math.log((count + alpha) / (c + alpha * bucket))
        log_joint[label] = logp
    peak = max(log_joint.values())
    raw = {label: math.exp(lp - peak) for label, lp in log_joint.items()}
    total = sum(raw.values())
    scores = {label: raw[label] / total for label in m.label_set}
    label = _argmax_lexicographic(scores)
    return Prediction(label, scores, m.model_id)


def _normalize(value: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    scaled = (value - lo) / (hi - lo)
    return min(1.0, max(0.0, scaled))


def _prepare(fv: FeatureVector, schema: Sequence[str], kinds, ranges) -> tuple:
    """Feature values in schema order as kNN compares them: numerics
    normalized (and clamped) to the training range, categories canonical."""
    return tuple(
        _normalize(float(v), *ranges[name]) if kind == "number" else canonical_category(v)
        for name, kind, (_, v) in zip(schema, kinds, fv.values)
    )


def _nearest(m: TrainedModel, x: FeatureVector) -> list[tuple[float, str]]:
    """The k nearest training rows to x as (distance, label), nearest first.

    Each row's squared distance is summed a feature at a time, in schema
    order, so it is the same float a row-by-row sum gives.  (distance,
    label) orders neighbours independently of training order; rows equal
    in both are interchangeable for the vote."""
    query = _prepare(x, m.config.feature_schema, m.kinds, m.parameters["ranges"])
    labels = m.parameters["labels"]
    sums = [0.0] * len(labels)
    for kind, column, q in zip(m.kinds, m.parameters["columns"], query):
        if kind == "number":
            sums = [d + (a - q) ** 2 for d, a in zip(sums, column)]
        else:
            sums = [d + 1.0 if a != q else d for d, a in zip(sums, column)]
    return heapq.nsmallest(m.config.hyperparams["k"], zip(map(math.sqrt, sums), labels))


def _predict_knn(m: TrainedModel, x: FeatureVector) -> Prediction:
    k = m.config.hyperparams["k"]
    nearest = _nearest(m, x)
    votes: dict[str, int] = {}
    dist_sum: dict[str, float] = {}
    for d, label in nearest:
        votes[label] = votes.get(label, 0) + 1
        dist_sum[label] = dist_sum.get(label, 0.0) + d
    best_votes = max(votes.values())
    tied = sorted(lab for lab, v in votes.items() if v == best_votes)
    label = min(tied, key=lambda lab: (dist_sum[lab], lab))
    scores = {lab: votes.get(lab, 0) / k for lab in m.label_set}
    return Prediction(label, scores, m.model_id)
