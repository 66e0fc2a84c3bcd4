# Fixture (interprocedural): the source lives here; the sink lives in
# flow_main.py.  detlint must carry the taint across the module edge
# and name both functions in the reported call chain.
import time


def now_seconds():
    return time.time()


def wrap_timing():
    return {"t": now_seconds()}
