# Fixture: DF401 — reachability from the non-test entry points.  The
# project root is reach_proj/ (it holds examples/); tests/ beside it
# keeps nothing alive.


def dead():  # DF401: referenced nowhere
    return 1


def tested_only():  # DF401: only tests/ calls it
    return 2


def countdown(n):  # DF401: only its own body calls it
    return n if n <= 0 else countdown(n - 1)


def for_examples():  # live: examples/demo.py calls it
    return 3


class Robot:  # live: examples/demo.py builds one
    def quack(self):  # live: poke() calls a same-named attribute
        return "beep"


def poke(thing):  # live: examples/demo.py calls it
    return thing.quack()


def rule(code):  # live: the decorator below calls it
    def wrap(fn):
        return fn

    return wrap


@rule("X001")
def check_x001():  # live: registered through @rule(...)
    return []


# Kept: the fixture's deliberate public name.
def kept():  # detlint: ignore[DF401]
    return 4


def stale():  # detlint: ignore[DF401]
    return 5
