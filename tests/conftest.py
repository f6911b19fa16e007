"""Suite-wide settings: a derandomized hypothesis profile, so that the
property tests draw the same examples on every run and take a fixed time."""

from hypothesis import settings

settings.register_profile("rmtldp", derandomize=True, database=None, deadline=None,
                          max_examples=20, print_blob=True)
settings.load_profile("rmtldp")
