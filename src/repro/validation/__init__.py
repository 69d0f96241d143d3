"""Methodology validation against ground truth (§3.5, Fig 4)."""

from repro.validation.validate import (
    ValidationReport,
    run_taxi_validation,
    validate_against_taxis,
)

__all__ = ["ValidationReport", "run_taxi_validation", "validate_against_taxis"]
