"""Every paper exhibit, computed once per session at full scale."""

import pytest

from repro.experiments.report_all import DRIVERS


@pytest.fixture(scope="session")
def exhibits():
    """Report label -> regenerated exhibit, in paper order."""
    return {label: driver() for label, driver in DRIVERS}
