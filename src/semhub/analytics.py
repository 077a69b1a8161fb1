"""Feature pipelines and the analyzer manager.

Three analyzers — location, activity, physio — share the ML suite from
`ml`.  Each has a fixed feature schema; the builders turn raw event history
into vectors, and `AnalyticsService` owns one trained model per analyzer;
training an analyzer again replaces its model.
Physio predictions additionally pass through a configurable recommendation
table keyed by (predicted status, current activity).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .errors import MissingConfig, ModelUnavailable
from .ml import (
    FeatureVector,
    LabeledInstance,
    ModelConfig,
    Prediction,
    TrainedModel,
    feature_vector,
    predict,
    train,
)

DATA_DIR = Path(__file__).resolve().parent / "data"

ANALYZERS = ("location", "activity", "physio")

LOCATION_SCHEMA = ("hour-of-day", "day-of-week", "previous-zone", "dwell-minutes")
ACTIVITY_SCHEMA = ("hour-of-day", "day-of-week", "previous-activity", "mean-motion-60min")
PHYSIO_SCHEMA = ("mean-hr-15min", "max-hr-15min", "mean-systolic-60min", "current-activity")

MINUTE_MS = 60_000

Event = tuple[int, object]  # (timestamp ms, value)


def _clock_features(t: int) -> list[tuple[str, object]]:
    dt = datetime.fromtimestamp(t / 1000, tz=timezone.utc)
    return [("hour-of-day", str(dt.hour)), ("day-of-week", str(dt.weekday()))]


def _trailing_run(events: Sequence[Event]) -> tuple[object, int] | None:
    """Value of the latest run of equal values and that run's start time."""
    ordered = sorted(events, key=lambda e: e[0])
    if not ordered:
        return None
    value = ordered[-1][1]
    start = ordered[-1][0]
    for ts, v in reversed(ordered[:-1]):
        if v != value:
            break
        start = ts
    return value, start


def build_location_features(zone_events: Sequence[Event], t: int) -> FeatureVector:
    """hour, weekday, the zone the user is currently in, and for how long."""
    pairs = _clock_features(t)
    run = _trailing_run(zone_events)
    if run is None:
        pairs += [("previous-zone", "none"), ("dwell-minutes", 0)]
    else:
        zone, start = run
        pairs += [("previous-zone", str(zone)), ("dwell-minutes", max(0, (t - start) // MINUTE_MS))]
    return feature_vector(pairs)


def _window_values(events: Sequence[Event], start: int, end: int) -> list[float]:
    return [float(v) for ts, v in events if start <= ts <= end]


def build_physio_features(
    heart_rate: Sequence[Event],
    systolic: Sequence[Event],
    current_activity: str,
    t: int,
) -> FeatureVector:
    hr = _window_values(heart_rate, t - 15 * MINUTE_MS, t)
    sys = _window_values(systolic, t - 60 * MINUTE_MS, t)
    return feature_vector(
        [
            ("mean-hr-15min", sum(hr) / len(hr) if hr else 0.0),
            ("max-hr-15min", max(hr) if hr else 0.0),
            ("mean-systolic-60min", sum(sys) / len(sys) if sys else 0.0),
            ("current-activity", current_activity),
        ]
    )


# --- recommendations --------------------------------------------------------

@dataclass(frozen=True)
class RecommendationTable:
    """First-match-wins rows of (status, activity-or-*, code)."""

    rows: tuple[tuple[str, str, str], ...]
    default: str

    def lookup(self, status: str, activity: str) -> str:
        for row_status, row_activity, code in self.rows:
            if row_status == status and row_activity in ("*", activity):
                return code
        return self.default

    @staticmethod
    def from_json(doc: Mapping) -> "RecommendationTable":
        return RecommendationTable(
            rows=tuple(
                (r["status"], r["activity"], r["code"]) for r in doc["rules"]
            ),
            default=doc["default"],
        )


def load_recommendations() -> RecommendationTable:
    p = DATA_DIR / "recommendations.json"
    return RecommendationTable.from_json(json.loads(p.read_text(encoding="utf-8")))


# --- config loading ---------------------------------------------------------

def config_from_json(doc: Mapping) -> ModelConfig:
    return ModelConfig(
        analyzer=doc["analyzer"],
        algorithm=doc["algorithm"],
        hyperparams=dict(doc.get("hyperparams", {})),
        feature_schema=tuple(doc["featureSchema"]),
    )


def load_analyzer_configs(config_dir: str | Path) -> dict[str, ModelConfig]:
    """One validated config per analyzer — all three or nothing."""
    directory = Path(config_dir)
    loaded: dict[str, ModelConfig] = {}
    for analyzer in ANALYZERS:
        path = directory / f"{analyzer}.json"
        if not path.is_file():
            raise MissingConfig(analyzer)
        cfg = config_from_json(json.loads(path.read_text(encoding="utf-8")))
        if cfg.analyzer != analyzer:
            raise MissingConfig(analyzer)
        loaded[analyzer] = cfg
    return loaded


# --- the manager ------------------------------------------------------------

class AnalyticsService:
    """Holds one trained model per analyzer and answers predictions."""

    def __init__(self):
        self._models: dict[str, TrainedModel] = {}
        self.recommendations = load_recommendations()
        self.counters: dict[str, int] = {a: 0 for a in ANALYZERS}

    def train_analyzer(
        self, analyzer: str, data: Sequence[LabeledInstance], cfg: ModelConfig
    ) -> TrainedModel:
        model = train(data, cfg)
        self._models[analyzer] = model
        return model

    def model(self, analyzer: str) -> TrainedModel:
        m = self._models.get(analyzer)
        if m is None:
            raise ModelUnavailable(f"no trained model for analyzer {analyzer!r}")
        return m

    def predict_for(self, analyzer: str, x: FeatureVector) -> Prediction:
        model = self.model(analyzer)
        self.counters[analyzer] = self.counters.get(analyzer, 0) + 1
        return predict(model, x)

    def analyze_physio_status(
        self,
        heart_rate: Sequence[Event],
        systolic: Sequence[Event],
        current_activity: str,
        t: int,
    ) -> tuple[Prediction, str]:
        x = build_physio_features(heart_rate, systolic, current_activity, t)
        prediction = self.predict_for("physio", x)
        code = self.recommendations.lookup(prediction.label, current_activity)
        return prediction, code
