# detlint-module: repro.store.fixture_commit
# Fixture: crash-boundary coverage.  Declares three boundaries; the
# sibling tests/ dir references "fixture.step.write" and the f-string
# pattern "fixture.*.sync" — "fixture.step.orphan" is deliberately
# unreferenced and must surface as DF201.


def checkpoint_boundary(label):
    pass


def commit(which):
    checkpoint_boundary("fixture.step.write")
    checkpoint_boundary(f"fixture.{which}.sync")
    checkpoint_boundary("fixture.step.orphan")
