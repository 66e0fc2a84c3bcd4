# Fixture: DF401 — a re-export is not a use.  An __all__ string and an
# import in pkg/__init__.py only pass a name on; a real use elsewhere,
# even one that imports through the package, keeps it alive.
__all__ = ["exported"]


def exported():  # DF401: only __all__ names it
    return 6


def reexported():  # DF401: only pkg/__init__.py imports it
    return 7


def via_package():  # live: examples/demo.py imports it through pkg
    return 8
