"""Import footprint of the runtime entry points.

Every campaign, service job, DES run and CLI command pays for what its
imports load, once per process.  The runtime needs only numpy and the
stdlib (scipy alone would cost about 1 s and 67 MB).  This check pins
that: a set check on loaded module names, not a timing check, so
machine load cannot make it flaky.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ENTRY_POINTS = (
    "repro.serve.__main__",
    "repro.experiments.__main__",
    "repro.obs.__main__",
    "repro.tools.detlint.__main__",
    "repro.core.campaign",
    "repro.tools.iperf",
)

#: Top-level packages a runtime import may load besides the stdlib.
ALLOWED_THIRD_PARTY = {"repro", "numpy"}

_LOADED_TOP_LEVEL = """
import importlib
import sys

main = sys.modules["__main__"]
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
for name in sorted(set(sys.modules) - before):
    # multiprocessing registers ``__main__`` again as ``__mp_main__``.
    if sys.modules[name] is not main:
        print(name.partition(".")[0])
"""

def _python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_entry_points_load_only_numpy_and_stdlib():
    loaded = set(_python("-c", _LOADED_TOP_LEVEL, *ENTRY_POINTS).split())
    assert "repro" in loaded
    unexpected = loaded - ALLOWED_THIRD_PARTY - set(sys.stdlib_module_names)
    assert not unexpected, f"runtime imports load {sorted(unexpected)}"
