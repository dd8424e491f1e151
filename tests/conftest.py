"""One hypothesis profile for every property test: the examples are derived
from each test's name, so a run is reproducible and no example database is
written; numerical examples get no deadline.  Tests set only
``max_examples``."""
from hypothesis import settings

settings.register_profile("deltacasimir", derandomize=True, database=None, deadline=None)
settings.load_profile("deltacasimir")
