"""Planted schedule, domain simulators, CSV feedstock, labeled datasets."""

import pytest

from semhub.analytics import ACTIVITY_SCHEMA, LOCATION_SCHEMA, PHYSIO_SCHEMA
from semhub.interop import (
    align,
    annotate,
    load_mapping_dir,
    translate_relational,
    validate_description,
)
from semhub.ml import ModelConfig, predict, train
from semhub.semantic import Iri, Literal
from semhub.simulate import (
    DATA_DIR,
    DomainSimulator,
    accuracy,
    chronological_split,
    csv_to_records,
    generate_labeled_dataset,
    load_schedule,
    load_vitals_fixture,
    physio_status,
    records_to_csv,
)
from semhub import vocab


@pytest.fixture(scope="module")
def schedule():
    return load_schedule()


@pytest.fixture(scope="module")
def mappings():
    return load_mapping_dir(DATA_DIR / "mappings")


# --- schedule ---------------------------------------------------------------


def test_schedule_covers_all_hours(schedule):
    assert len(schedule.slots) == 24
    assert all(activity and zone for activity, zone in schedule.slots)
    assert set(schedule.profiles) == {
        "Sleeping", "Cooking", "Resting", "Working", "Exercising",
    }


def test_schedule_two_am_is_asleep_in_bedroom(schedule):
    assert schedule.slot(2) == ("Sleeping", "Bedroom")
    assert schedule.profile_at(2).motion == 0


def test_schedule_tick_clock(schedule):
    assert schedule.tick_ms == 60000
    assert schedule.base_ms == 1704067200000
    assert schedule.hour_of_tick(0) == 0
    assert schedule.hour_of_tick(120) == 2
    assert schedule.hour_of_tick(60 * 24 + 60) == 1  # wraps daily
    assert schedule.wall_ms(3) == 1704067200000 + 180000


def test_schedule_dwell_hours(schedule):
    # Bedroom block runs 23:00 through 05:00
    assert schedule.dwell_hours(2) == 3
    assert schedule.dwell_hours(23) == 0
    assert schedule.dwell_hours(9) == 0
    assert schedule.dwell_hours(12) == 3


def test_physio_status_bands():
    assert physio_status(72, 118) == "Normal"
    assert physio_status(130, 118) == "Elevated"  # boundary stays Elevated
    assert physio_status(130.1, 118) == "Critical"
    assert physio_status(39, 118) == "Critical"
    assert physio_status(49, 118) == "Elevated"
    assert physio_status(72, 161) == "Critical"
    assert physio_status(72, 131) == "Elevated"
    assert physio_status(72, 79) == "Critical"


# --- emissions --------------------------------------------------------------


def alices(domain, *sensors):
    """The VOs of alice's `sensors` streams in `domain`."""
    return {vocab.vo_iri(domain, sensor, "alice") for sensor in sensors}


def test_noise_free_home_emissions_match_schedule(schedule):
    sim = DomainSimulator("smart-home", schedule, seed=1, noise_rate=0.0)
    emissions, records = sim.emit(120)  # 02:00
    assert records == []
    by_source = {e.source: e for e in emissions}
    motion = vocab.vo_iri("smart-home", "motion", "alice")
    assert by_source[motion].value == Literal("0", "integer")
    assert by_source[vocab.vo_iri("smart-home", "luminosity", "alice")].value == Literal("5", "integer")
    # tick 120 is not a temperature (7) or appliance (11) cadence point
    assert vocab.vo_iri("smart-home", "temperature", "alice") not in by_source
    assert vocab.vo_iri("smart-home", "appliance", "alice") not in by_source
    assert by_source[motion].timestamp == schedule.wall_ms(120)


def test_noise_free_office_beacon_matches_schedule(schedule):
    sim = DomainSimulator("smart-office", schedule, seed=1, noise_rate=0.0)
    emissions, _ = sim.emit(120)
    beacon = next(e for e in emissions if e.source == vocab.vo_iri("smart-office", "beacon", "alice"))
    assert beacon.value == Literal("Bedroom", "string")
    occupancy = next(e for e in emissions if e.source == vocab.vo_iri("smart-office", "occupancy", "alice"))
    assert occupancy.value == Literal("0", "integer")


def test_noise_free_office_occupied_during_working_hours(schedule):
    sim = DomainSimulator("smart-office", schedule, seed=1, noise_rate=0.0)
    emissions, _ = sim.emit(600)  # 10:00, Working/Office
    occupancy = next(e for e in emissions if e.source == vocab.vo_iri("smart-office", "occupancy", "alice"))
    assert occupancy.value == Literal("1", "integer")


def test_cadences_gate_emission(schedule):
    sim = DomainSimulator("smart-home", schedule, seed=1, noise_rate=0.0)
    emissions, _ = sim.emit(35)  # 35 = 5*7: motion, luminosity, temperature
    sources = {e.source for e in emissions}
    assert sources == alices("smart-home", "motion", "luminosity", "temperature")
    emissions, _ = sim.emit(44)  # 44 = 4*11: motion and appliance only
    assert {e.source for e in emissions} == alices("smart-home", "motion", "appliance")


def test_sequences_are_monotonic_per_sensor(schedule):
    sim = DomainSimulator("smart-home", schedule, seed=1, noise_rate=0.0)
    motions = []
    for tick in range(12):
        emissions, _ = sim.emit(tick)
        motions.extend(e.sequence for e in emissions if e.source == vocab.vo_iri("smart-home", "motion", "alice"))
    assert motions == list(range(1, 13))


def test_medical_emits_observations_and_rows(schedule):
    sim = DomainSimulator("medical-facility", schedule, seed=1, noise_rate=0.0)
    emissions, records = sim.emit(2)
    assert {e.source for e in emissions} == alices("medical-facility", "hr", "systolic", "diastolic")
    (row,) = records
    assert row.table == "vitals"
    assert row.columns["record_id"] == "r000001"
    assert row.columns["patient_id"] == "alice"
    assert row.columns["heart_rate"] == "58.0"
    _, later = sim.emit(4)
    assert later[0].columns["record_id"] == "r000002"


def test_same_seed_same_emissions(schedule):
    def trace(seed):
        sim_pair = [
            DomainSimulator(d, schedule, seed, noise_rate=0.1)
            for d in ("smart-home", "medical-facility")
        ]
        out = []
        for tick in range(60):
            for sim in sim_pair:
                emissions, records = sim.emit(tick)
                out.append((emissions, [r.columns for r in records]))
        return out

    assert trace(42) == trace(42)
    assert trace(42) != trace(43)


def test_noise_rate_one_perturbs_plenty(schedule):
    quiet = DomainSimulator("smart-home", schedule, seed=9, noise_rate=0.0)
    noisy = DomainSimulator("smart-home", schedule, seed=9, noise_rate=1.0)
    differing = 0
    for tick in range(0, 120):
        base, _ = quiet.emit(tick)
        loud, _ = noisy.emit(tick)
        for a, b in zip(base, loud):
            if a.value != b.value:
                differing += 1
    assert differing > 50


# --- csv and the interop feedstock ------------------------------------------


def test_csv_roundtrip(schedule):
    sim = DomainSimulator("medical-facility", schedule, seed=3, noise_rate=0.2)
    rows = []
    for tick in range(0, 20):
        _, records = sim.emit(tick)
        rows.extend(records)
    text = records_to_csv(rows)
    back = csv_to_records(text)
    assert [r.columns for r in back] == [
        {k: str(v) for k, v in r.columns.items()} for r in rows
    ]
    assert all(r.table == "vitals" and r.primary_key == "record_id" for r in back)


def test_vitals_fixture_loads():
    records = load_vitals_fixture()
    assert len(records) == 12
    assert records[0].columns["record_id"] == "r0001"
    assert {r.columns["patient_id"] for r in records} == {"alice", "bob"}


def test_fixture_translates_to_typed_triples(mappings):
    triples = translate_relational(
        load_vitals_fixture(), mappings.translations["medical-vitals"]
    )
    first_subject = Iri("urn:med:vitals:r0001")
    typed = [t for t in triples if t.subject == first_subject and t.predicate == vocab.TYPE]
    assert typed == [
        t for t in triples[:6] if t.predicate == vocab.TYPE
    ]
    assert typed[0].object == vocab.MED_VITALS_RECORD
    hr = next(
        t for t in triples if t.subject == first_subject and t.predicate == vocab.MED_HR
    )
    assert hr.object == Literal("61.0", "decimal")


def test_fixture_pipeline_validates_after_alignment(mappings):
    triples = translate_relational(
        load_vitals_fixture(), mappings.translations["medical-vitals"]
    )
    annotated = annotate(triples, mappings.ontologies["medical"])
    aligned = align(annotated, mappings.alignments["medical-to-hub"])
    report = validate_description(aligned, mappings.ontologies["hub-central"])
    assert report.valid, report.violations


def test_fixture_pipeline_invalid_without_alignment(mappings):
    triples = translate_relational(
        load_vitals_fixture(), mappings.translations["medical-vitals"]
    )
    annotated = annotate(triples, mappings.ontologies["medical"])
    report = validate_description(annotated, mappings.ontologies["hub-central"])
    assert not report.valid
    assert any(v.reason == "unknown-predicate" for v in report.violations)


# --- labeled datasets -------------------------------------------------------


def test_dataset_unknown_task():
    with pytest.raises(ValueError):
        generate_labeled_dataset("weather", 10, 1)


def test_location_dataset_shape():
    data = generate_labeled_dataset("location", 100, 7)
    assert len(data) == 100
    assert data[0].features.names() == LOCATION_SCHEMA
    zones = load_schedule().zones()
    assert all(inst.label in zones for inst in data)
    assert data[0].features["previous-zone"] == "none"
    assert data[0].features["hour-of-day"] == "0"
    assert data[25].features["hour-of-day"] == "1"
    assert data[25].features["day-of-week"] == "1"


def test_activity_dataset_shape():
    data = generate_labeled_dataset("activity", 60, 7)
    assert data[0].features.names() == ACTIVITY_SCHEMA
    activities = set(load_schedule().activities())
    assert {inst.label for inst in data} <= activities


def test_physio_dataset_shape():
    data = generate_labeled_dataset("physio", 400, 42)
    assert data[0].features.names() == PHYSIO_SCHEMA
    labels = {inst.label for inst in data}
    assert "Normal" in labels
    assert labels <= {"Normal", "Elevated", "Critical"}
    assert len(labels) >= 2  # noise plus the exercise hour produce non-Normal


def test_noise_free_dataset_follows_schedule_exactly():
    schedule = load_schedule()
    data = generate_labeled_dataset("location", 48, 5, noise_rate=0.0)
    for i, inst in enumerate(data):
        assert inst.label == schedule.slot(i % 24)[1]


def test_dataset_is_deterministic_per_seed():
    a = generate_labeled_dataset("activity", 200, 42)
    b = generate_labeled_dataset("activity", 200, 42)
    c = generate_labeled_dataset("activity", 200, 43)
    assert a == b
    assert a != c


def test_chronological_split_preserves_order():
    data = generate_labeled_dataset("location", 500, 42)
    train_set, test_set = chronological_split(data, 0.2)
    assert len(train_set) == 400 and len(test_set) == 100
    assert train_set + test_set == data


def test_planted_pattern_is_learnable():
    # smaller than the acceptance fixture, same construction
    for task, schema in (("location", LOCATION_SCHEMA), ("activity", ACTIVITY_SCHEMA)):
        data = generate_labeled_dataset(task, 240, 11)
        train_set, test_set = chronological_split(data, 0.2)
        base = train(train_set, ModelConfig(task, "majority", {}, schema))
        nb = train(train_set, ModelConfig(task, "naive-bayes", {"alpha": 1.0}, schema))
        base_acc = accuracy(lambda fv: predict(base, fv).label, test_set)
        nb_acc = accuracy(lambda fv: predict(nb, fv).label, test_set)
        assert nb_acc >= base_acc + 0.10, (task, base_acc, nb_acc)
