import math
import random

import pytest

from semhub.errors import (
    EmptyDataset,
    InvalidHyperparam,
    MissingConfig,
    ModelUnavailable,
    SchemaMismatch,
)
from semhub.analytics import (
    ACTIVITY_SCHEMA,
    AnalyticsService,
    DATA_DIR,
    LOCATION_SCHEMA,
    PHYSIO_SCHEMA,
    build_activity_features,
    build_location_features,
    build_physio_features,
    load_analyzer_configs,
    load_recommendations,
)
from semhub.ml import (
    FeatureVector,
    LabeledInstance,
    ModelConfig,
    feature_vector,
    predict,
    train,
)

BASE_TS = 1_704_067_200_000  # 2024-01-01T00:00:00Z (a Monday)


def inst(label, **features):
    return LabeledInstance(feature_vector(list(features.items())), label)


def xvec(**features):
    return feature_vector(list(features.items()))


def cfg(algorithm, schema, **hyper):
    return ModelConfig("test", algorithm, hyper, tuple(schema))


# --- config validation ------------------------------------------------------

def test_knn_k_must_be_odd_and_positive():
    for bad in (0, -1, 2, 4, "3", None):
        with pytest.raises(InvalidHyperparam):
            cfg("knn", ["x"], k=bad)
    cfg("knn", ["x"], k=3)


def test_naive_bayes_alpha_positive():
    for bad in (0, -0.5, None):
        with pytest.raises(InvalidHyperparam):
            cfg("naive-bayes", ["x"], alpha=bad)
    cfg("naive-bayes", ["x"], alpha=0.5)


def test_unknown_algorithm():
    with pytest.raises(InvalidHyperparam):
        cfg("svm", ["x"])


# --- training errors --------------------------------------------------------

def test_empty_dataset():
    with pytest.raises(EmptyDataset):
        train([], cfg("majority", ["x"]))


def test_schema_mismatch_at_train():
    with pytest.raises(SchemaMismatch):
        train([inst("A", y=1)], cfg("majority", ["x"]))


def test_knn_k_larger_than_dataset():
    with pytest.raises(InvalidHyperparam):
        train([inst("A", x=1)], cfg("knn", ["x"], k=3))


def test_schema_mismatch_at_predict():
    m = train([inst("A", x=1)], cfg("majority", ["x"]))
    with pytest.raises(SchemaMismatch):
        predict(m, xvec(y=1))
    with pytest.raises(SchemaMismatch):
        predict(m, xvec(x="one"))  # kind changed number -> category


# --- majority ---------------------------------------------------------------

def test_majority_single_instance():
    m = train([inst("Office", x=1)], cfg("majority", ["x"]))
    for v in (0, 1, 99):
        assert predict(m, xvec(x=v)).label == "Office"


def test_majority_modal_label_with_lexicographic_ties():
    data = [inst("B", x=1), inst("A", x=2), inst("B", x=3), inst("A", x=4)]
    m = train(data, cfg("majority", ["x"]))
    p = predict(m, xvec(x=0))
    assert p.label == "A"
    assert p.scores == {"A": 0.5, "B": 0.5}


# --- naive bayes ------------------------------------------------------------

def four_instance_fixture():
    return [inst("A", x=1), inst("A", x=1), inst("A", x=1), inst("B", x=2)]


def test_naive_bayes_hand_computed_fixture():
    m = train(four_instance_fixture(), cfg("naive-bayes", ["x"], alpha=1.0))
    # smoothed prior: (3+1)/(4+2)
    p = predict(m, xvec(x=1))
    assert p.label == "A"
    assert p.scores["A"] == pytest.approx(16 / 19, abs=1e-12)
    assert p.scores["B"] == pytest.approx(3 / 19, abs=1e-12)


def test_naive_bayes_unseen_category_total():
    m = train(four_instance_fixture(), cfg("naive-bayes", ["x"], alpha=1.0))
    p = predict(m, xvec(x=7))  # never observed
    assert math.isclose(sum(p.scores.values()), 1.0, abs_tol=1e-9)
    # unseen bucket: P(7|A) = 1/6, P(7|B) = 1/4
    # posterior A = (4/6 * 1/6) / (4/6 * 1/6 + 2/6 * 1/4) = 4/7
    assert p.scores["A"] == pytest.approx(4 / 7, abs=1e-12)


def test_naive_bayes_posteriors_sum_to_one_corpus():
    rng = random.Random(11)
    labels = ["A", "B", "C"]
    data = [
        inst(rng.choice(labels), x=rng.randrange(5), y=rng.choice("pqr"))
        for _ in range(60)
    ]
    m = train(data, cfg("naive-bayes", ["x", "y"], alpha=0.7))
    for _ in range(50):
        p = predict(m, xvec(x=rng.randrange(8), y=rng.choice("pqrs")))
        assert math.isclose(sum(p.scores.values()), 1.0, abs_tol=1e-9)
        assert p.label == min(p.scores, key=lambda l: (-p.scores[l], l))


def test_numeric_categories_collapse():
    m = train([inst("A", x=1), inst("A", x=1), inst("B", x=2)],
              cfg("naive-bayes", ["x"], alpha=1.0))
    assert predict(m, xvec(x=1.0)).scores == predict(m, xvec(x=1)).scores


# --- knn --------------------------------------------------------------------

def test_knn_exact_match_k1():
    data = [inst("A", x=0.0, c="p"), inst("B", x=1.0, c="q")]
    m = train(data, cfg("knn", ["x", "c"], k=1))
    p = predict(m, xvec(x=1.0, c="q"))
    assert p.label == "B"
    assert p.scores["B"] == 1.0
    assert p.scores["A"] == 0.0


def test_knn_normalization_and_clamping():
    data = [inst("A", x=0), inst("A", x=50), inst("B", x=100)]
    m = train(data, cfg("knn", ["x"], k=1))
    assert m.parameters["ranges"]["x"] == (0.0, 100.0)
    # 1000 clamps to 1.0, landing exactly on the B point
    assert predict(m, xvec(x=1000)).label == "B"
    assert predict(m, xvec(x=-500)).label == "A"


def test_knn_categorical_mismatch_counts_one():
    data = [inst("A", c="p", d="p"), inst("B", c="q", d="q"), inst("B", c="q", d="p")]
    m = train(data, cfg("knn", ["c", "d"], k=1))
    assert predict(m, xvec(c="p", d="q")).label in {"A", "B"}
    assert predict(m, xvec(c="q", d="p")).label == "B"


def test_knn_vote_tie_breaks_by_distance_sum():
    # k=3: one A at distance 0, two B further away -> B wins the vote;
    # with one A very close and votes 2-1 the vote still rules
    data = [
        inst("A", x=0.0),
        inst("B", x=60.0),
        inst("B", x=80.0),
        inst("A", x=100.0),
    ]
    m = train(data, cfg("knn", ["x"], k=3))
    p = predict(m, xvec(x=70.0))
    assert p.label == "B"
    assert p.scores == {"A": 1 / 3, "B": 2 / 3}


def test_knn_equals_majority_when_k_is_n():
    rng = random.Random(5)
    for trial in range(15):
        n = 7
        labels = ["A"] * 4 + ["B"] * 2 + ["C"]
        rng.shuffle(labels)
        data = [
            inst(labels[i], x=rng.uniform(0, 10), c=rng.choice("pq"))
            for i in range(n)
        ]
        knn = train(data, cfg("knn", ["x", "c"], k=7))
        maj = train(data, cfg("majority", ["x", "c"]))
        for _ in range(5):
            x = xvec(x=rng.uniform(-5, 15), c=rng.choice("pqr"))
            assert predict(knn, x).label == predict(maj, x).label == "A"


def test_predictions_invariant_under_training_permutation():
    rng = random.Random(21)
    data = [
        inst(rng.choice("ABC"), x=rng.randrange(6), c=rng.choice("pqr"))
        for _ in range(40)
    ]
    probes = [xvec(x=rng.randrange(8), c=rng.choice("pqrs")) for _ in range(20)]
    for algorithm, hyper in (
        ("majority", {}),
        ("naive-bayes", {"alpha": 1.0}),
        ("knn", {"k": 5}),
    ):
        base = train(data, cfg(algorithm, ["x", "c"], **hyper))
        expected = [predict(base, x).label for x in probes]
        for _ in range(3):
            shuffled = data[:]
            rng.shuffle(shuffled)
            m = train(shuffled, cfg(algorithm, ["x", "c"], **hyper))
            assert [predict(m, x).label for x in probes] == expected


# --- feature builders -------------------------------------------------------

def test_location_features_empty_history():
    fv = build_location_features([], BASE_TS + 13 * 3_600_000)
    assert fv.values == (
        ("hour-of-day", "13"),
        ("day-of-week", "0"),
        ("previous-zone", "none"),
        ("dwell-minutes", 0),
    )


def test_location_features_trailing_run():
    t = BASE_TS + 10 * 3_600_000
    events = [
        (t - 40 * 60_000, "LivingRoom"),
        (t - 12 * 60_000, "Kitchen"),
        (t - 6 * 60_000, "Kitchen"),
    ]
    fv = build_location_features(events, t)
    assert fv["previous-zone"] == "Kitchen"
    assert fv["dwell-minutes"] == 12


def test_location_features_order_independent():
    t = BASE_TS + 3_600_000
    events = [(t - 5 * 60_000, "A"), (t - 15 * 60_000, "B"), (t - 10 * 60_000, "A")]
    assert build_location_features(events, t) == build_location_features(
        list(reversed(events)), t
    )


def test_activity_features_mean_motion():
    t = BASE_TS + 3_600_000
    motion = [(t - 10 * 60_000, 4), (t - 5 * 60_000, 8), (t - 70 * 60_000, 100)]
    fv = build_activity_features([(t - 20 * 60_000, "Cooking")], motion, t)
    assert fv["previous-activity"] == "Cooking"
    assert fv["mean-motion-60min"] == pytest.approx(6.0)
    empty = build_activity_features([], [], t)
    assert empty["previous-activity"] == "none"
    assert empty["mean-motion-60min"] == 0.0


def test_physio_features_windows():
    t = BASE_TS + 2 * 3_600_000
    hr = [(t - 5 * 60_000, 70), (t - 2 * 60_000, 74), (t - 20 * 60_000, 200)]
    sys = [(t - 30 * 60_000, 120), (t - 61 * 60_000, 300)]
    fv = build_physio_features(hr, sys, "Resting", t)
    assert fv["mean-hr-15min"] == pytest.approx(72.0)
    assert fv["max-hr-15min"] == pytest.approx(74.0)
    assert fv["mean-systolic-60min"] == pytest.approx(120.0)
    assert fv["current-activity"] == "Resting"


# --- analytics manager ------------------------------------------------------

def physio_training_data():
    rows = []
    for _ in range(3):
        rows.append(
            LabeledInstance(
                build_physio_features([(0, 70)], [(0, 115)], "Resting", 0), "Normal"
            )
        )
        rows.append(
            LabeledInstance(
                build_physio_features([(0, 120)], [(0, 150)], "Exercising", 0), "Elevated"
            )
        )
    return rows


def physio_cfg():
    return ModelConfig("physio", "naive-bayes", {"alpha": 1.0}, PHYSIO_SCHEMA)


def test_analyze_physio_recommendations():
    service = AnalyticsService()
    service.train_analyzer("physio", physio_training_data(), physio_cfg())
    prediction, code = service.analyze_physio_status([(0, 70)], [(0, 115)], "Resting", 0)
    assert prediction.label == "Normal"
    assert code == "REC-NONE"
    prediction, code = service.analyze_physio_status(
        [(0, 120)], [(0, 150)], "Exercising", 0
    )
    assert prediction.label == "Elevated"
    assert code == "REC-HYDRATE-REST"


def test_recommendation_table_rows():
    table = load_recommendations()
    assert table.lookup("Normal", "Working") == "REC-NONE"
    assert table.lookup("Elevated", "Resting") == "REC-CHECK-BP"
    assert table.lookup("Elevated", "Cooking") == "REC-MONITOR"
    assert table.lookup("Critical", "Sleeping") == "REC-ALERT-CAREGIVER"
    assert table.lookup("Unheard", "x") == "REC-MONITOR"


def test_model_unavailable():
    service = AnalyticsService()
    with pytest.raises(ModelUnavailable):
        service.analyze_physio_status([], [], "Resting", 0)


def test_load_bundled_configs():
    configs = load_analyzer_configs(DATA_DIR / "analytics")
    assert set(configs) == {"location", "activity", "physio"}
    assert configs["location"].algorithm == "knn"
    assert configs["location"].feature_schema == LOCATION_SCHEMA
    assert configs["activity"].feature_schema == ACTIVITY_SCHEMA


def test_load_configs_missing_is_atomic(tmp_path):
    (tmp_path / "location.json").write_text(
        (DATA_DIR / "analytics" / "location.json").read_text()
    )
    with pytest.raises(MissingConfig) as e:
        load_analyzer_configs(tmp_path)
    assert e.value.analyzer == "activity"


def test_load_configs_invalid_hyperparam(tmp_path):
    for name in ("location", "activity", "physio"):
        (tmp_path / f"{name}.json").write_text(
            (DATA_DIR / "analytics" / f"{name}.json").read_text()
        )
    bad = (tmp_path / "location.json").read_text().replace('"k": 5', '"k": 4')
    (tmp_path / "location.json").write_text(bad)
    with pytest.raises(InvalidHyperparam):
        load_analyzer_configs(tmp_path)
