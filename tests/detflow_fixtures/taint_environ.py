# Fixture: DF102 — environment/pid values reaching fingerprint input.
import os


def fingerprint(spec):
    return repr(spec)


def pid_in_identity():
    spec = {"pid": os.getpid()}
    return fingerprint(spec)  # DF102: pid -> fingerprint input


def env_in_identity():
    spec = {"home": os.environ["HOME"]}
    return fingerprint(spec)  # DF102: environ -> fingerprint input


def env_acknowledged():
    spec = {"home": os.environ.get("HOME", "")}
    return fingerprint(spec)  # detlint: ignore[DF102]
