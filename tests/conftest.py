"""Shared test settings: every property-based test runs a fixed, derandomized
set of examples with no deadline and no example database, so a run is
reproducible and writes nothing."""

from hypothesis import settings

settings.register_profile("tsmamba", derandomize=True, deadline=None, database=None)
settings.load_profile("tsmamba")
