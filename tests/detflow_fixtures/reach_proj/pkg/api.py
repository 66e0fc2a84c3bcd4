# Fixture: DF401 — an __all__ export is live.
__all__ = ["exported"]


def exported():
    return 6
