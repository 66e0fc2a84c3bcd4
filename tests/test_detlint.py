"""detlint's local rules: every rule fires on its seeded fixture,
suppressions work, unused suppressions are reported, the registry lists
every code once, and src/repro itself is clean under every rule.

The fixtures in ``tests/detlint_fixtures/`` each contain exactly the
violations their docstring names, at pinned line numbers — if a rule's
detection logic regresses, the (code, line) assertions here catch it.
Fixture tests select the local codes (``LOCAL_CODES``) so each pins
its own family; ``test_full_run_over_detlint_fixtures`` runs every rule.
The whole-program rules are tested in ``tests/test_detflow.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tools.detlint import RULES, Finding, run_paths
from repro.tools.detlint.__main__ import main
from repro.tools.detlint.engine import (
    FILE_CHECKS,
    PROJECT_CHECKS,
    module_name_for,
    parse_suppressions,
)
from repro.tools.detlint.rules import FINGERPRINT_FIELDS, SIM_PACKAGES

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "detlint_fixtures"

#: The per-file and cross-file pattern rules, plus the suppression audit.
LOCAL_CODES = [c for c, info in RULES.items() if info.scope == "local"] + ["SUP001"]


def codes_and_lines(findings: list[Finding]) -> set[tuple[str, int]]:
    return {(f.code, f.line) for f in findings}


# -- each rule fires on its fixture, with the right code and line --------


@pytest.mark.parametrize(
    ("fixture", "expected"),
    [
        ("det001_rng.py", {("DET001", 3), ("DET001", 9)}),
        ("det002_wallclock.py", {("DET002", 7)}),
        ("det003_setorder.py", {("DET003", 6)}),
        ("det004_entropy.py", {("DET004", 6)}),
        ("det005_mutation.py", {("DET005", 6)}),
        ("det006_barewrite.py", {("DET006", 8), ("DET006", 12)}),
        ("det007_persample.py", {("DET007", 8), ("DET007", 9)}),
        (
            "det008_listing.py",
            {
                ("DET008", 9),
                ("DET008", 14),
                ("DET008", 19),
                ("DET008", 24),
                ("DET008", 28),
            },
        ),
        ("inv101_name.py", {("INV101", 6)}),
        ("inv102_serve_metric.py", {("INV102", 8)}),
    ],
)
def test_rule_fires_on_fixture(fixture: str, expected: set[tuple[str, int]]):
    findings = run_paths([str(FIXTURES / fixture)], select=LOCAL_CODES)
    assert codes_and_lines(findings) == expected


def test_full_run_over_detlint_fixtures():
    # Every rule, local and whole-program, over the whole corpus: the
    # whole-program passes add nothing here.
    findings = run_paths([str(FIXTURES)])
    assert {(Path(f.path).name, f.code, f.line) for f in findings} == {
        ("det001_rng.py", "DET001", 3),
        ("det001_rng.py", "DET001", 9),
        ("det002_wallclock.py", "DET002", 7),
        ("det003_setorder.py", "DET003", 6),
        ("det004_entropy.py", "DET004", 6),
        ("det005_mutation.py", "DET005", 6),
        ("det006_barewrite.py", "DET006", 8),
        ("det006_barewrite.py", "DET006", 12),
        ("det007_persample.py", "DET007", 8),
        ("det007_persample.py", "DET007", 9),
        ("det008_listing.py", "DET008", 9),
        ("det008_listing.py", "DET008", 14),
        ("det008_listing.py", "DET008", 19),
        ("det008_listing.py", "DET008", 24),
        ("det008_listing.py", "DET008", 28),
        ("inv101_name.py", "INV101", 6),
        ("inv102_serve_metric.py", "INV102", 8),
        ("unused_suppression.py", "SUP001", 6),
    }


def test_each_fixture_exits_nonzero_via_cli(capsys):
    for fixture in sorted(FIXTURES.glob("det*.py")):
        assert main([str(fixture)]) == 1, fixture.name
    capsys.readouterr()


# -- suppressions --------------------------------------------------------


def test_suppression_silences_finding():
    findings = run_paths([str(FIXTURES / "suppressed_ok.py")])
    assert findings == []


def test_unused_suppression_reported():
    findings = run_paths([str(FIXTURES / "unused_suppression.py")])
    assert codes_and_lines(findings) == {("SUP001", 6)}
    assert "DET001" in findings[0].message


def test_unused_suppression_not_reported_when_rule_deselected():
    # If DET001 never ran, its ignore cannot be judged unused.
    findings = run_paths(
        [str(FIXTURES / "unused_suppression.py")], select=["DET002", "SUP001"]
    )
    assert findings == []


def test_parse_suppressions_multiple_codes():
    lines = ["x = 1  # detlint: ignore[DET001, DET002]", "y = 2"]
    assert parse_suppressions(lines) == {1: {"DET001", "DET002"}}


# -- select/ignore -------------------------------------------------------


def test_select_narrows_rules():
    path = str(FIXTURES / "det001_rng.py")
    assert codes_and_lines(run_paths([path], select=["DET002"])) == set()
    assert len(run_paths([path], select=["DET001"])) == 2


def test_ignore_drops_rules():
    path = str(FIXTURES / "det001_rng.py")
    assert run_paths([path], ignore=["DET001"]) == []


def test_unknown_code_rejected():
    with pytest.raises(ValueError, match="DET999"):
        run_paths([str(FIXTURES)], select=["DET999"])
    assert main([str(FIXTURES), "--select", "DET999"]) == 2


# -- scoping -------------------------------------------------------------


def test_det002_scoped_to_simulation_packages(tmp_path):
    body = "import time\n\n\ndef f():\n    return time.time()\n"
    outside = tmp_path / "outside.py"
    outside.write_text("# detlint-module: repro.obs.recorder\n" + body)
    inside = tmp_path / "inside.py"
    inside.write_text("# detlint-module: repro.leo.channel\n" + body)
    assert run_paths([str(outside)]) == []
    assert {f.code for f in run_paths([str(inside)])} == {"DET002"}
    assert all(pkg.startswith("repro.") for pkg in SIM_PACKAGES)


def test_det001_allows_repro_rng_itself(tmp_path):
    path = tmp_path / "rng.py"
    path.write_text(
        "# detlint-module: repro.rng\n"
        "import numpy as np\n\n\n"
        "def make(seed):\n    return np.random.default_rng(seed)\n"
    )
    assert run_paths([str(path)]) == []


def test_det001_allows_seeded_generator_construction(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# detlint-module: repro.core.mod\n"
        "import numpy as np\n\n\n"
        "def make(seed):\n    return np.random.default_rng(seed)\n"
    )
    assert run_paths([str(path)]) == []


def test_det003_allows_sorted_set(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# detlint-module: repro.core.mod\n"
        "def f(names):\n    return sorted(set(names))\n"
    )
    assert run_paths([str(path)]) == []


def test_det006_exempts_store_writers(tmp_path):
    # repro.store owns the commit protocol; its own primitives may open
    # and write directly — everywhere else must go through them.
    body = (
        "import json\n\n\n"
        "def save(path, payload):\n"
        "    with open(path, 'w') as handle:\n"
        "        json.dump(payload, handle)\n"
    )
    inside = tmp_path / "inside.py"
    inside.write_text("# detlint-module: repro.store.commit\n" + body)
    outside = tmp_path / "outside.py"
    outside.write_text("# detlint-module: repro.core.campaign\n" + body)
    assert run_paths([str(inside)]) == []
    assert {f.code for f in run_paths([str(outside)])} == {"DET006"}


def test_det006_ignores_reads_and_non_json_writes(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# detlint-module: repro.core.mod\n"
        "import json\n\n\n"
        "def load(path):\n"
        "    with open(path) as handle:\n"
        "        return json.load(handle)\n\n\n"
        "def export(path, rows):\n"
        "    with open(path, 'w') as handle:\n"
        "        handle.write('\\n'.join(rows))\n"
    )
    assert run_paths([str(path)]) == []


def test_det007_scoped_to_hot_packages_with_reference_exempt(tmp_path):
    # The scalar reference pair may walk traces sample-by-sample; code
    # outside repro.core/repro.leo is out of scope entirely.
    body = (
        "def f(samples):\n"
        "    return [s.capacity_mbps(True) for s in samples]\n"
    )
    for module in (
        "repro.core.fluid",
        "repro.core.fastpath.fluid",
        "repro.cellular.capacity",
    ):
        path = tmp_path / (module.replace(".", "_") + ".py")
        path.write_text(f"# detlint-module: {module}\n" + body)
        assert run_paths([str(path)]) == [], module
    hot = tmp_path / "hot.py"
    hot.write_text("# detlint-module: repro.core.analysis\n" + body)
    assert {f.code for f in run_paths([str(hot)])} == {"DET007"}


def test_det007_ignores_non_trace_loops(tmp_path):
    # Loops whose variable never feeds LinkConditions consumption stay
    # clean — the rule keys on the sample API, not on loops as such.
    path = tmp_path / "mod.py"
    path.write_text(
        "# detlint-module: repro.core.mod\n"
        "def f(records, walker):\n"
        "    total = 0.0\n"
        "    for record in records:\n"
        "        total += record.throughput\n"
        "        walker.step()\n"
        "    return total\n"
    )
    assert run_paths([str(path)]) == []


def test_det005_ignores_non_fingerprint_fields(tmp_path):
    # workers/resilience are execution knobs, deliberately outside the
    # fingerprint — mutating them (repro.experiments.common does) is fine.
    path = tmp_path / "mod.py"
    path.write_text(
        "# detlint-module: repro.experiments.mod\n"
        "def f(config):\n    config.workers = 4\n"
    )
    assert run_paths([str(path)]) == []
    assert "workers" not in FINGERPRINT_FIELDS
    assert "resilience" not in FINGERPRINT_FIELDS


# -- INV101 project half -------------------------------------------------


def _write_manifest_pair(tmp_path, wall_clock: str):
    mani = tmp_path / "mani.py"
    mani.write_text(
        "# detlint-module: repro.obs.manifest\n"
        f'WALL_CLOCK_METRICS = frozenset({{"{wall_clock}"}})\n'
        'EXECUTION_METRICS = frozenset({"campaign.drives_resumed"})\n'
        'EXECUTION_METRIC_PREFIXES = ("resilience.",)\n'
    )
    camp = tmp_path / "camp.py"
    camp.write_text(
        "# detlint-module: repro.core.campaign\n"
        "def run(obs):\n"
        '    obs.counter("campaign.drive_seconds")\n'
        '    obs.counter("campaign.drives_resumed")\n'
        '    obs.counter("resilience.retries")\n'
    )
    return [str(mani), str(camp)]


def test_inv101_consistent_manifest_is_clean(tmp_path):
    assert run_paths(_write_manifest_pair(tmp_path, "campaign.drive_seconds")) == []


def test_inv101_flags_stale_exclusion(tmp_path):
    findings = run_paths(_write_manifest_pair(tmp_path, "campaign.ghost"))
    assert [f.code for f in findings] == ["INV101"]
    assert "campaign.ghost" in findings[0].message


def test_inv101_project_check_skipped_on_partial_scan(tmp_path):
    # Linting the manifest alone must not call every exclusion stale.
    paths = _write_manifest_pair(tmp_path, "campaign.ghost")
    assert run_paths([paths[0]]) == []


# -- INV102 --------------------------------------------------------------


def test_inv102_scoped_to_serve_package(tmp_path):
    # Only repro.serve is held to the exclusion contract; the same
    # registration elsewhere is INV101's (shape-only) business.
    body = 'def register(obs):\n    obs.counter("campaign.sneaky_total")\n'
    outside = tmp_path / "outside.py"
    outside.write_text("# detlint-module: repro.core.campaign\n" + body)
    inside = tmp_path / "inside.py"
    inside.write_text("# detlint-module: repro.serve.service\n" + body)
    assert run_paths([str(outside)]) == []
    assert {f.code for f in run_paths([str(inside)])} == {"INV102"}


def test_inv102_accepts_all_exclusion_routes(tmp_path):
    # Prefix match, wall-clock membership, and execution membership all
    # satisfy the contract — the rule reads the live manifest constants.
    path = tmp_path / "mod.py"
    path.write_text(
        "# detlint-module: repro.serve.service\n"
        "def register(obs):\n"
        '    obs.counter("serve.admissions")\n'
        '    obs.gauge("serve.queue_depth")\n'
        '    obs.histogram("serve.job_seconds")\n'
        '    obs.counter("campaign.drive_seconds")\n'
        '    obs.counter("campaign.drives_resumed")\n'
        '    obs.counter("resilience.retries")\n'
        '    obs.counter("store.shards_written")\n'
    )
    assert run_paths([str(path)]) == []


# -- module naming -------------------------------------------------------


def test_module_name_from_path():
    assert module_name_for("src/repro/leo/channel.py") == "repro.leo.channel"
    assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for("/abs/elsewhere/thing.py") == "thing"


def test_module_name_override_comment():
    assert (
        module_name_for("tests/x.py", "# detlint-module: repro.core.y")
        == "repro.core.y"
    )


# -- CLI surface ---------------------------------------------------------


def test_cli_json_format(capsys):
    code = main([str(FIXTURES / "det002_wallclock.py"), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["code"] == "DET002"
    assert payload["findings"][0]["line"] == 7


def test_cli_clean_exit(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    # One registry: all 23 codes of both rule families, each listed once.
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [
        "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
        "DET007", "DET008", "INV101", "INV102",
        "DF001", "DF101", "DF102", "DF103", "DF104", "DF105", "DF106",
        "DF201", "DF202", "DF301", "DF401", "SUP001", "SYN001",
    ]
    # Every local code has a check behind it (INV101 has two halves).
    local = {c for c, info in RULES.items() if info.scope == "local"}
    assert set(FILE_CHECKS) | set(PROJECT_CHECKS) == local


def test_syntax_error_is_reported(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings = run_paths([str(bad)])
    assert [f.code for f in findings] == ["SYN001"]


# -- the repo holds its own invariants -----------------------------------


def test_src_is_clean():
    """In-process, every local rule over src/ finds nothing (the
    whole-program rules' in-process scan is ``test_detflow.py``'s
    ``test_src_repro_is_clean``)."""
    findings = run_paths([str(SRC_REPRO.parent)], select=LOCAL_CODES)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_module_entrypoint_runs_clean_on_src():
    """The acceptance gate: ``python -m repro.tools.detlint src/repro``
    exits 0.  One scan covers the CLI entry point and both rule
    families — no local pattern, no taint flow, no uncovered crash
    boundary (the crash tests are found in ``tests/``), no live state
    across a fork."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.detlint", str(SRC_REPRO)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout
