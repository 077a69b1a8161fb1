"""Seeded domain simulators built around one planted daily schedule.

The schedule (data/schedule.json) maps each hour of the day to an activity
and a zone, and each activity to typical sensor readings.  Everything the
simulators emit — smart-home JSON observations, medical relational rows,
office zone beacons — is a noisy view of that one pattern, which is what
makes the analytics stack learnable by construction: hour-of-day almost
determines the label, so pattern-aware models should clearly beat the
majority baseline.

Noise is label/value perturbation with a fixed per-domain RNG; with
noise_rate=0 the emissions equal the planted schedule exactly.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import vocab
from .analytics import ACTIVITY_SCHEMA, LOCATION_SCHEMA, PHYSIO_SCHEMA
from .interop import RelationalRecord
from .ml import LabeledInstance, feature_vector
from .objects import Observation
from .semantic import Literal, decimal, integer, string

DATA_DIR = Path(__file__).parent / "data"

# cadence (in ticks) per sensor; tick = one simulated minute
CADENCES = {
    "motion": 1,
    "vitals": 2,
    "beacon": 3,
    "occupancy": 4,
    "luminosity": 5,
    "temperature": 7,
    "appliance": 11,
}


@dataclass(frozen=True)
class ActivityProfile:
    motion: int
    luminosity: int
    temperature: float
    heart_rate: float
    systolic: float
    diastolic: float


@dataclass(frozen=True)
class Schedule:
    tick_ms: int
    base_ms: int
    slots: tuple[tuple[str, str], ...]  # (activity, zone) for hours 0..23
    profiles: dict[str, ActivityProfile]

    def slot(self, hour: int) -> tuple[str, str]:
        return self.slots[hour % 24]

    def profile_at(self, hour: int) -> ActivityProfile:
        return self.profiles[self.slot(hour)[0]]

    def hour_of_tick(self, tick: int) -> int:
        return (tick // 60) % 24

    def wall_ms(self, tick: int) -> int:
        return self.base_ms + tick * self.tick_ms

    def zones(self) -> list[str]:
        return sorted({zone for _, zone in self.slots})

    def activities(self) -> list[str]:
        return sorted(self.profiles)

    def dwell_hours(self, hour: int) -> int:
        """How many consecutive earlier hours shared this hour's zone."""
        zone = self.slot(hour)[1]
        count = 0
        h = hour - 1
        while count < 48 and self.slot(h)[1] == zone:
            count += 1
            h -= 1
        return count


def load_schedule() -> Schedule:
    doc = json.loads((DATA_DIR / "schedule.json").read_text())
    slots = [("", "")] * 24
    for row in doc["hours"]:
        slots[row["hour"]] = (row["activity"], row["zone"])
    profiles = {
        name: ActivityProfile(
            motion=p["motion"],
            luminosity=p["luminosity"],
            temperature=p["temperature"],
            heart_rate=p["heartRate"],
            systolic=p["systolic"],
            diastolic=p["diastolic"],
        )
        for name, p in doc["profiles"].items()
    }
    return Schedule(doc["tickMs"], doc["baseMs"], tuple(slots), profiles)


def physio_status(heart_rate: float, systolic: float) -> str:
    """The same banding the physio rule program encodes, as plain arithmetic."""
    if heart_rate > 130 or heart_rate < 40 or systolic > 160 or systolic < 80:
        return "Critical"
    if heart_rate > 100 or heart_rate < 50 or systolic > 130 or systolic < 90:
        return "Elevated"
    return "Normal"


# --- tick-driven emission ---------------------------------------------------


class DomainSimulator:
    """Emits one domain's sensor traffic for a given tick, each reading an
    `Observation` of its VO, `vocab.vo_iri(domain, sensor, user)`.

    smart-home: motion / luminosity / temperature / appliance observations
    medical-facility: hr / systolic / diastolic observations plus the same
        readings as relational `vitals` rows (the relational->RDF feedstock)
    smart-office: zone beacon / occupancy observations
    """

    def __init__(
        self,
        domain: str,
        schedule: Schedule,
        seed,
        noise_rate: float = 0.1,
        users: Sequence[str] = ("alice",),
    ):
        self.domain = domain
        self.schedule = schedule
        self.noise_rate = noise_rate
        self.users = tuple(users)
        self.rng = random.Random(f"{seed}:{domain}")
        self._record_counter = 0

    def _noisy(self) -> bool:
        return self.rng.random() < self.noise_rate

    def emit(self, tick: int) -> tuple[list[Observation], list[RelationalRecord]]:
        hour = self.schedule.hour_of_tick(tick)
        ts = self.schedule.wall_ms(tick)
        profile = self.schedule.profile_at(hour)
        _, zone = self.schedule.slot(hour)
        emissions: list[Observation] = []
        records: list[RelationalRecord] = []

        def obs(sensor: str, user: str, value: Literal, cadence: str | None = None):
            # a stream reads at every CADENCES[...]-th tick from 0; this is its n-th such tick
            sequence = tick // CADENCES[cadence or sensor] + 1
            emissions.append(
                Observation(vocab.vo_iri(self.domain, sensor, user), ts, value, sequence)
            )

        for user in self.users:
            if self.domain == "smart-home":
                if tick % CADENCES["motion"] == 0:
                    motion = profile.motion
                    if self._noisy():
                        motion = max(0, motion + self.rng.choice([-2, 1, 2, 3, 5]))
                    obs("motion", user, integer(motion))
                if tick % CADENCES["luminosity"] == 0:
                    lux = profile.luminosity
                    if self._noisy():
                        lux = max(0, int(lux * self.rng.choice([0.5, 1.5])))
                    obs("luminosity", user, integer(lux))
                if tick % CADENCES["temperature"] == 0:
                    temp = profile.temperature
                    if self._noisy():
                        temp += self.rng.choice([-2.5, -1.0, 1.0, 2.5])
                    obs("temperature", user, decimal(f"{temp:.1f}"))
                if tick % CADENCES["appliance"] == 0:
                    activity = self.schedule.slot(hour)[0]
                    state = "on" if activity == "Cooking" else "off"
                    if self._noisy():
                        state = "off" if state == "on" else "on"
                    obs("appliance", user, string(state))
            elif self.domain == "medical-facility":
                if tick % CADENCES["vitals"] == 0:
                    hr = profile.heart_rate
                    sys_bp = profile.systolic
                    dia = profile.diastolic
                    if self._noisy():
                        hr += self.rng.choice([-15.0, 12.0, 40.0])
                    if self._noisy():
                        sys_bp += self.rng.choice([-12.0, 10.0, 35.0])
                    obs("hr", user, decimal(f"{hr:.1f}"), "vitals")
                    obs("systolic", user, decimal(f"{sys_bp:.1f}"), "vitals")
                    obs("diastolic", user, decimal(f"{dia:.1f}"), "vitals")
                    self._record_counter += 1
                    records.append(
                        RelationalRecord(
                            table="vitals",
                            primary_key="record_id",
                            columns={
                                "record_id": f"r{self._record_counter:06d}",
                                "patient_id": user,
                                "recorded_at": ts,
                                "heart_rate": f"{hr:.1f}",
                                "systolic": f"{sys_bp:.1f}",
                                "diastolic": f"{dia:.1f}",
                            },
                        )
                    )
            elif self.domain == "smart-office":
                if tick % CADENCES["beacon"] == 0:
                    observed_zone = zone
                    if self._noisy():
                        others = [z for z in self.schedule.zones() if z != zone]
                        observed_zone = self.rng.choice(others)
                    obs("beacon", user, string(observed_zone))
                if tick % CADENCES["occupancy"] == 0:
                    occupancy = 1 if zone == "Office" else 0
                    if self._noisy():
                        occupancy = max(0, occupancy + self.rng.choice([-1, 1]))
                    obs("occupancy", user, integer(occupancy))
        return emissions, records


# --- relational csv helpers -------------------------------------------------

VITALS_COLUMNS = (
    "record_id", "patient_id", "recorded_at", "heart_rate", "systolic", "diastolic"
)


def records_to_csv(records: Sequence[RelationalRecord]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=VITALS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({c: rec.columns.get(c, "") for c in VITALS_COLUMNS})
    return out.getvalue()


def csv_to_records(text: str) -> list[RelationalRecord]:
    reader = csv.DictReader(io.StringIO(text))
    return [
        RelationalRecord(table="vitals", primary_key="record_id", columns=dict(row))
        for row in reader
    ]


def load_vitals_fixture() -> list[RelationalRecord]:
    return csv_to_records(
        (DATA_DIR / "fixtures" / "medical_vitals.csv").read_text(encoding="utf-8")
    )


# --- labeled datasets for the analyzers -------------------------------------


def generate_labeled_dataset(
    task: str, n: int, seed, noise_rate: float = 0.1
) -> list[LabeledInstance]:
    """Chronological hourly instances for one analyzer task.

    Labels follow the planted schedule with `noise_rate` random flips;
    numeric features carry mild jitter.  Instance i sits at hour i, so
    a prefix split is a chronological split.
    """
    if task not in ("location", "activity", "physio"):
        raise ValueError(f"unknown dataset task {task!r}")
    rng = random.Random(f"{seed}:ml:{task}")
    schedule = load_schedule()
    zones = schedule.zones()
    activities = schedule.activities()
    out: list[LabeledInstance] = []
    prev_location = "none"
    prev_activity = "none"
    for i in range(n):
        hour = i % 24
        dow = (i // 24) % 7
        planted_activity, planted_zone = schedule.slot(hour)
        profile = schedule.profiles[planted_activity]

        if task == "location":
            label = planted_zone
            if rng.random() < noise_rate:
                label = rng.choice([z for z in zones if z != planted_zone])
            features = feature_vector(
                tuple(
                    zip(
                        LOCATION_SCHEMA,
                        (
                            str(hour),
                            str(dow),
                            prev_location,
                            schedule.dwell_hours(hour) * 60,
                        ),
                    )
                )
            )
            prev_location = label
        elif task == "activity":
            label = planted_activity
            if rng.random() < noise_rate:
                label = rng.choice([a for a in activities if a != planted_activity])
            motion = max(0.0, profile.motion + rng.gauss(0, 0.8))
            features = feature_vector(
                tuple(
                    zip(
                        ACTIVITY_SCHEMA,
                        (str(hour), str(dow), prev_activity, round(motion, 2)),
                    )
                )
            )
            prev_activity = label
        else:
            hr = profile.heart_rate + rng.gauss(0, 2.0)
            sys_bp = profile.systolic + rng.gauss(0, 2.0)
            if rng.random() < noise_rate:
                hr += rng.choice([-25.0, 35.0, 60.0])
            if rng.random() < noise_rate:
                sys_bp += rng.choice([-20.0, 30.0, 50.0])
            label = physio_status(hr, sys_bp)
            features = feature_vector(
                tuple(
                    zip(
                        PHYSIO_SCHEMA,
                        (
                            round(hr, 1),
                            round(hr + abs(rng.gauss(0, 3.0)), 1),
                            round(sys_bp, 1),
                            planted_activity,
                        ),
                    )
                )
            )
        out.append(LabeledInstance(features, label))
    return out


def chronological_split(
    data: Sequence[LabeledInstance], holdout: float = 0.2
) -> tuple[list[LabeledInstance], list[LabeledInstance]]:
    cut = int(len(data) * (1 - holdout))
    return list(data[:cut]), list(data[cut:])


def accuracy(predict_fn, test: Sequence[LabeledInstance]) -> float:
    if not test:
        return 0.0
    hits = sum(1 for inst in test if predict_fn(inst.features) == inst.label)
    return hits / len(test)
