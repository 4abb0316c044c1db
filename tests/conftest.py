"""The suite's one Hypothesis profile: derandomized, so that every run
tries the same examples, and with no deadline, since the oracle scans are
slow by design.  Each test sets only its own max_examples."""

from hypothesis import settings

settings.register_profile("quasicartan", derandomize=True, deadline=None)
settings.load_profile("quasicartan")
