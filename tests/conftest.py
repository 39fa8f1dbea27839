"""Suite-wide test settings.

Property tests run under a derandomized hypothesis profile with no example
database, so every run draws the same examples and the suite stays
deterministic; ``max_examples`` bounds their time to a few seconds.
"""

from hypothesis import settings

settings.register_profile("twoenv", derandomize=True, database=None, max_examples=60,
                          deadline=None)
settings.load_profile("twoenv")
