import pytest
from hypothesis import settings

# Tier-1 draws the same examples on every run: examples come from each
# test's own seed, nothing is read from or saved to an example database,
# and no example is timed out.  ``pytest --hypothesis-profile=explore``
# draws random examples, five times as many, to look for new failures.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", max_examples=500, deadline=None)
settings.load_profile("deterministic")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Record the call-phase outcome on the item so fixtures that emit
    status lines during teardown can report pass/fail."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        item.rep_call_failed = report.failed
