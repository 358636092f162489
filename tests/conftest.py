"""Hypothesis settings profiles.

``ci`` derandomizes every property test, so a run is reproducible from
the source alone, and prints the blob that replays a failing example.
Select it with ``--hypothesis-profile=ci``; without the option the
property tests keep hypothesis' default random search.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, print_blob=True)
