"""Test-wide settings.

Property tests run the same examples on every machine: the hypothesis
profile loaded here derives examples from each test's own code
(derandomize) and keeps no example database between runs.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")
