"""Hypothesis profiles. Where the CI environment variable is set (GitHub Actions
sets it), the ``ci`` profile draws the same examples on every run and prints
the blob that replays a failure, so a hosted failure reproduces locally with
``CI=1``. Local runs keep the default, randomized profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
