"""Suite-wide test settings.

Every hypothesis property test runs derandomized, with no deadline and
no example database, so the suite draws the same examples on every run
and writes nothing next to the checkout.  Tests set only their example
counts.
"""

from hypothesis import settings

settings.register_profile("cmtomo", deadline=None, derandomize=True, database=None)
settings.load_profile("cmtomo")
