# Fixture test: a call from tests/ keeps nothing alive.
from pkg.core import tested_only


def check_tested_only():
    assert tested_only() == 2
