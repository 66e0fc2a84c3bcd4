# Fixture: DF401 — the package's imports re-export; they use nothing.
from pkg.api import reexported, via_package
