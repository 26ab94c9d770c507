"""Shared test settings: every hypothesis test runs derandomized, with no
example database and no per-example deadline; each `@settings` sets only
`max_examples`."""

from hypothesis import settings

settings.register_profile("nhskin", deadline=None, derandomize=True, database=None)
settings.load_profile("nhskin")
