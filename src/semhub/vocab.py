"""Shared vocabulary: the `urn:sem:` terms every component agrees on.

The hub, the virtual objects, the reasoners and the interop pipeline all
speak this vocabulary; domain-local terms (e.g. the medical facility's
`urn:med:` columns) are mapped onto it by alignment maps.
"""

from __future__ import annotations

from .semantic import Iri

NS = "urn:sem:"

# core predicates
TYPE = Iri(NS + "type")
CONFORMS_TO = Iri(NS + "conformsTo")
OBSERVED_AT = Iri(NS + "observedAt")
MONITORS = Iri(NS + "monitors")

# observed properties
MOTION_COUNT = Iri(NS + "motionCount")
LUMINOSITY = Iri(NS + "luminosity")
TEMPERATURE = Iri(NS + "temperature")
APPLIANCE_STATE = Iri(NS + "applianceState")
ZONE_READING = Iri(NS + "zoneReading")
OCCUPANCY = Iri(NS + "occupancy")
HEART_RATE = Iri(NS + "heartRate")
SYSTOLIC = Iri(NS + "systolicPressure")
DIASTOLIC = Iri(NS + "diastolicPressure")

# derived facts
CURRENT_ACTIVITY = Iri(NS + "currentActivity")
IN_ZONE = Iri(NS + "inZone")
PHYSIO_STATUS = Iri(NS + "physioStatus")

# windowed summaries feeding the rule programs
HOUR_OF_DAY = Iri(NS + "hourOfDay")
MAX_MOTION_30M = Iri(NS + "maxMotion30m")
MEAN_LUMINOSITY = Iri(NS + "meanLuminosity")
LATEST_BEACON_ZONE = Iri(NS + "latestBeaconZone")
MEAN_HEART_RATE_15M = Iri(NS + "meanHeartRate15m")
MEAN_SYSTOLIC_60M = Iri(NS + "meanSystolic60m")

# wildcard accepted wherever a domain class is expected
ANY_CLASS = Iri(NS + "class:Any")


def ontology_iri(name: str) -> Iri:
    return Iri(f"{NS}ontology:{name}")


def class_iri(name: str) -> Iri:
    return Iri(f"{NS}class:{name}")


def zone_iri(name: str) -> Iri:
    return Iri(f"{NS}zone:{name}")


def user_iri(name: str) -> Iri:
    return Iri(f"{NS}user:{name}")


def graph_iri(name: str) -> Iri:
    return Iri(f"{NS}graph:{name}")


def vo_iri(domain: str, sensor: str, user: str) -> Iri:
    """The virtual object of one user's `sensor` stream in `domain`."""
    return Iri(f"{NS}vo:{domain}:{sensor}:{user}")


# relational vitals rows, once translated and aligned
PATIENT_ID = Iri(NS + "patientId")

# medical facility's local vocabulary (pre-alignment)
MED_NS = "urn:med:"
MED_HR = Iri(MED_NS + "hr")
MED_PATIENT = Iri(MED_NS + "class:Patient")
MED_VITALS_RECORD = Iri(MED_NS + "class:VitalsRecord")
