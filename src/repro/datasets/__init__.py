"""Synthetic data sets mirroring the paper's SYN / LIG / STA (Table 5)."""

from repro.datasets.fleet import Fleet, JourneyRef
from repro.datasets.showcase import ShowcaseBundle, build_showcase
from repro.datasets.synthetic import (
    LIG_SPEC,
    SPECS,
    STA_SPEC,
    SYN_SPEC,
    DatasetBundle,
    DatasetSpec,
    build_dataset,
    build_lig,
    build_sta,
    build_syn,
    journeys,
)

__all__ = [
    "Fleet",
    "JourneyRef",
    "build_showcase",
    "ShowcaseBundle",
    "DatasetSpec",
    "DatasetBundle",
    "SYN_SPEC",
    "LIG_SPEC",
    "STA_SPEC",
    "SPECS",
    "build_dataset",
    "build_syn",
    "build_lig",
    "build_sta",
    "journeys",
]
