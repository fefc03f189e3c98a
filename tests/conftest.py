"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run
(a seed derived from each test, no example database), so a red build reproduces locally."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
