"""Hypothesis settings for the whole suite.

Property tests run derandomized, without a per-example deadline and with
a bounded number of examples, so that every run of the suite checks the
same examples in a predictable time.
"""

from hypothesis import settings

settings.register_profile("bbi", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("bbi")
