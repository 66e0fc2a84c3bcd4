"""detlint's whole-program rules (DF*): every taint class fires on its
seeded fixture and is correctly sanitizer-suppressed, taint crosses
module boundaries with the full call chain reported, crash-boundary
coverage fails closed, fork-safety flags live captures, and
reachability flags defs that no non-test entry point names.

The fixtures in ``tests/detflow_fixtures/`` each contain exactly the
flows their comments name, at pinned line numbers.  ``scan`` selects
the whole-program codes (``PROGRAM_CODES``) so each fixture pins its
own family; ``test_full_run_over_detflow_fixtures`` runs every rule.
``test_src_repro_is_clean`` scans src/repro with the whole-program
codes; ``tests/test_detlint.py``'s ``test_module_entrypoint_runs_clean_on_src``
scans it with every rule through the CLI.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.tools.detlint import RULES, Finding, run_paths
from repro.tools.detlint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"
TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "detflow_fixtures"
COVERAGE_PROJ = FIXTURES / "coverage_proj"
REACH_PROJ = FIXTURES / "reach_proj"

#: The whole-program rules, plus the suppression audit.
PROGRAM_CODES = [c for c, info in RULES.items() if info.scope == "program"] + ["SUP001"]


def codes_and_lines(findings: list[Finding]) -> set[tuple[str, int]]:
    return {(f.code, f.line) for f in findings}


def scan(*paths: Path, tests_dir: Path | None = TESTS) -> list[Finding]:
    return run_paths(
        [str(p) for p in paths],
        select=PROGRAM_CODES,
        tests_dir=str(tests_dir) if tests_dir else None,
    )


# -- each taint class: caught AND sanitizer-suppressed -------------------
# Every fixture contains both the tainted flow (pinned lines below) and
# its sanctioned twin; the exact-set assertion proves the sanitized
# variant produced nothing.

@pytest.mark.parametrize(
    ("fixture", "expected"),
    [
        # wallclock -> canonical JSON + non-excluded metric; the
        # WALL_CLOCK_METRICS-excluded observe() and the field-sensitive
        # clean-payload sink stay silent.
        ("taint_wallclock.py", {("DF101", 11), ("DF101", 23)}),
        # pid/environ -> fingerprint; the detlint: ignore[DF102] line
        # stays silent (and its suppression counts as used).
        ("taint_environ.py", {("DF102", 11), ("DF102", 16)}),
        # unsorted listdir/iterdir -> shard; sorted() variant silent.
        ("taint_listing.py", {("DF103", 11), ("DF103", 23)}),
        # set iteration -> journal, list(set) -> canonical JSON;
        # sorted() variant silent.
        ("taint_setorder.py", {("DF104", 10), ("DF104", 24)}),
        # global random.random -> fingerprint; repro.rng substream
        # draw silent.
        ("taint_rng.py", {("DF105", 12)}),
        # sum over a set -> canonical JSON; sum(sorted(...)) silent.
        ("taint_floatsum.py", {("DF106", 10)}),
        # star import rejected outright.
        ("import_star.py", {("DF001", 2)}),
    ],
)
def test_taint_class_fires_and_sanitizer_suppresses(fixture: str, expected):
    findings = scan(FIXTURES / fixture)
    assert codes_and_lines(findings) == expected


def test_full_run_over_detflow_fixtures():
    # Every rule over the whole corpus: the whole-program findings plus
    # four local ones on the same flows — DET008 on the unsorted
    # listings, DET001 on the stdlib random import, DET003 on the
    # list(set) call.  Against the repo's tests/, coverage_proj's
    # fixture.* boundaries are all uncovered.  reach_proj is judged
    # against its own root; every other fixture sits in the repo's
    # tests/, which DF401 never reports.
    findings = run_paths([str(FIXTURES)], tests_dir=str(TESTS))
    got = {
        (Path(f.path).relative_to(FIXTURES).as_posix(), f.code, f.line)
        for f in findings
    }
    assert got == {
        ("coverage_proj/pkg/fixture_commit.py", "DF201", 13),
        ("coverage_proj/pkg/fixture_commit.py", "DF201", 14),
        ("coverage_proj/pkg/fixture_commit.py", "DF201", 15),
        ("flow_main.py", "DF101", 10),
        ("fork_capture.py", "DF301", 22),
        ("fork_capture.py", "DF301", 29),
        ("fork_capture.py", "DF301", 36),
        ("fork_capture.py", "DF301", 44),
        ("import_star.py", "DF001", 2),
        ("reach_proj/pkg/api.py", "DF401", 7),
        ("reach_proj/pkg/api.py", "DF401", 11),
        ("reach_proj/pkg/core.py", "DF401", 6),
        ("reach_proj/pkg/core.py", "DF401", 10),
        ("reach_proj/pkg/core.py", "DF401", 14),
        ("reach_proj/pkg/core.py", "SUP001", 48),
        ("taint_environ.py", "DF102", 11),
        ("taint_environ.py", "DF102", 16),
        ("taint_floatsum.py", "DF106", 10),
        ("taint_listing.py", "DET008", 10),
        ("taint_listing.py", "DET008", 22),
        ("taint_listing.py", "DF103", 11),
        ("taint_listing.py", "DF103", 23),
        ("taint_rng.py", "DET001", 3),
        ("taint_rng.py", "DF105", 12),
        ("taint_setorder.py", "DET003", 23),
        ("taint_setorder.py", "DF104", 10),
        ("taint_setorder.py", "DF104", 24),
        ("taint_wallclock.py", "DF101", 11),
        ("taint_wallclock.py", "DF101", 23),
    }


def test_finding_messages_carry_source_and_sink():
    findings = scan(FIXTURES / "taint_listing.py")
    message = findings[0].message
    assert "unsorted directory listing" in message
    assert "shard record" in message
    assert "call chain:" in message


# -- interprocedural flows ------------------------------------------------


def test_taint_crosses_module_boundary_with_full_chain():
    findings = scan(FIXTURES / "flow_main.py", FIXTURES / "flow_helper.py")
    assert codes_and_lines(findings) == {("DF101", 10)}
    message = findings[0].message
    # The chain names every hop: source helper -> wrapper -> sinker.
    assert (
        "flow_helper.now_seconds -> flow_helper.wrap_timing -> flow_main.persist"
        in message
    )
    # The origin points into the *helper* module, the finding into the
    # sink module — cross-file attribution is the whole point.
    assert "flow_helper.py:8" in message
    assert findings[0].path.endswith("flow_main.py")


def test_helper_alone_is_clean():
    # The source without the sink is not a finding.
    assert scan(FIXTURES / "flow_helper.py") == []


# -- crash-boundary coverage ---------------------------------------------


def test_boundary_coverage_flags_only_the_orphan():
    findings = scan(COVERAGE_PROJ / "pkg", tests_dir=COVERAGE_PROJ / "tests")
    assert codes_and_lines(findings) == {("DF201", 15)}
    assert "fixture.step.orphan" in findings[0].message


def test_boundary_coverage_fails_closed_when_reference_deleted(tmp_path):
    # Deleting the crash test's reference to a boundary must resurface
    # it as DF201 — coverage is re-derived from the tests, not cached.
    proj = tmp_path / "proj"
    shutil.copytree(COVERAGE_PROJ, proj)
    crash_test = proj / "tests" / "test_store_crash.py"
    text = crash_test.read_text().replace('"fixture.step.write",\n', "")
    crash_test.write_text(text)
    findings = scan(proj / "pkg", tests_dir=proj / "tests")
    assert ("DF201", 13) in codes_and_lines(findings)
    assert any("fixture.step.write" in f.message for f in findings)


def test_boundary_coverage_fails_closed_when_crash_test_missing(tmp_path):
    proj = tmp_path / "proj"
    shutil.copytree(COVERAGE_PROJ, proj)
    (proj / "tests" / "test_store_crash.py").unlink()
    findings = scan(proj / "pkg", tests_dir=proj / "tests")
    codes = {f.code for f in findings}
    assert "DF202" in codes  # missing file: cannot verify == failure
    # The boundaries the deleted file referenced are now uncovered too.
    assert "DF201" in codes


def test_boundary_coverage_fails_closed_when_no_tests_dir():
    findings = scan(COVERAGE_PROJ / "pkg", tests_dir=None)
    # Auto-discovery walks up from the fixture and finds the repo's own
    # tests/, which has no fixture.* references: everything uncovered —
    # either way the scan cannot silently pass.
    assert findings, "boundary declarations with no coverage must fail"


def test_fstring_boundaries_match_fstring_references():
    # src's journal boundaries are f-strings (journal.{label}.append);
    # the serve crash test references them with f-strings too.  The
    # pattern matcher must connect the two — proven by the self-scan
    # being free of DF201 for journal.* (see test_detlint.py's
    # test_module_entrypoint_runs_clean_on_src).
    findings = scan(SRC_REPRO / "serve" / "journal.py")
    assert [f for f in findings if f.code in ("DF201", "DF202")] == []


# -- fork-safety ----------------------------------------------------------


def test_fork_safety_flags_live_captures():
    findings = scan(FIXTURES / "fork_capture.py")
    assert codes_and_lines(findings) == {
        ("DF301", 22),  # target=self._run bound method
        ("DF301", 29),  # live ShardWriter in args
        ("DF301", 36),  # open file handle in args
        ("DF301", 44),  # thread started in the forking function
    }
    by_line = {f.line: f.message for f in findings}
    assert "ShardWriter" in by_line[29]
    assert "open file handle" in by_line[36]
    assert "bound method" in by_line[22]
    assert "thread" in by_line[44]


# -- reachability -------------------------------------------------------


def test_reachability_flags_dead_and_test_only_defs():
    # Dead, called only from tests/, called only from its own body, and
    # only re-exported (an __all__ string or a package __init__ import)
    # are findings; used from examples/ (directly or through the
    # package), duck-typed, @rule-registered and marked are not; the
    # mark on a used def is stale.
    findings = scan(REACH_PROJ / "pkg")
    got = {(Path(f.path).name, f.code, f.line) for f in findings}
    assert got == {
        ("api.py", "DF401", 7), ("api.py", "DF401", 11),
        ("core.py", "DF401", 6), ("core.py", "DF401", 10),
        ("core.py", "DF401", 14), ("core.py", "SUP001", 48),
    }
    by_line = {(Path(f.path).name, f.line): f.message for f in findings}
    assert "'exported'" in by_line["api.py", 7]
    assert "'reexported'" in by_line["api.py", 11]
    assert "'dead'" in by_line["core.py", 6]
    assert "'tested_only'" in by_line["core.py", 10]
    assert "'countdown'" in by_line["core.py", 14]


def test_reachability_counts_unscanned_project_files():
    # A scan of one module still sees the rest of the project: api.py
    # alone reports only its two re-exported names, not via_package,
    # which only the unscanned examples/demo.py uses; one src module
    # whose names only other src modules use is clean.
    assert codes_and_lines(scan(REACH_PROJ / "pkg" / "api.py")) == {
        ("DF401", 7), ("DF401", 11),
    }
    assert scan(SRC_REPRO / "units.py") == []


def test_reachability_skips_files_outside_a_project(tmp_path):
    # No examples/, perfbench/ or benchmarks/ above the file: there are
    # no entry points to be reached from, so nothing is judged.
    path = tmp_path / "loose.py"
    path.write_text("def unused():\n    return 1\n")
    assert scan(path) == []


# -- suppressions ---------------------------------------------------------


def test_df_codes_use_the_detlint_suppression_tag(tmp_path):
    # One tag for every code: "# detlint: ignore[DF105]" silences the
    # whole-program finding, and the retired per-tool tag is now an
    # ordinary comment that silences nothing.
    text = (FIXTURES / "taint_rng.py").read_text().replace(
        "# DF105: global RNG", "# detlint: ignore[DF105]"
    )
    suppressed = tmp_path / "suppressed.py"
    suppressed.write_text(text)
    assert scan(suppressed) == []

    leftover = tmp_path / "leftover.py"
    leftover.write_text(text.replace("# detlint:", "# detflow:"))
    assert codes_and_lines(scan(leftover)) == {("DF105", 12)}


def test_unused_detflow_suppression_reported(tmp_path):
    path = tmp_path / "unused.py"
    path.write_text("x = 1  # detlint: ignore[DF101]\n")
    assert codes_and_lines(scan(path)) == {("SUP001", 1)}


# -- CLI ------------------------------------------------------------------


def test_cli_exit_codes(capsys):
    assert main([str(FIXTURES / "taint_rng.py")]) == 1
    assert main([str(SRC_REPRO / "rng.py")]) == 0
    assert main(["--select", "NOPE123", str(FIXTURES)]) == 2
    capsys.readouterr()


def test_cli_select_narrows(capsys):
    code = main([str(FIXTURES / "fork_capture.py"), "--select", "DF101"])
    assert code == 0  # DF301 findings filtered out
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("DF001", "DF101", "DF106", "DF201", "DF202", "DF301", "DF401", "SUP001"):
        assert code in out


def test_cli_json_format(capsys):
    # One run reports both families: the import (DET001) and the flow
    # into the fingerprint (DF105).
    assert main([str(FIXTURES / "taint_rng.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert [f["code"] for f in payload["findings"]] == ["DET001", "DF105"]


def test_cli_sarif_format(capsys):
    main([str(FIXTURES / "taint_rng.py"), "--format", "sarif"])
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "detlint"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == sorted(RULES)
    assert [r["ruleId"] for r in run["results"]] == ["DET001", "DF105"]
    region = run["results"][1]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 12


def test_sarif_output_is_deterministic(capsys):
    main([str(FIXTURES / "fork_capture.py"), "--format", "sarif"])
    first = capsys.readouterr().out
    main([str(FIXTURES / "fork_capture.py"), "--format", "sarif"])
    assert capsys.readouterr().out == first


def test_detlint_sarif_format(capsys):
    fixture = TESTS / "detlint_fixtures" / "det008_listing.py"
    main([str(fixture), "--format", "sarif"])
    log = json.loads(capsys.readouterr().out)
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "detlint"
    assert {r["ruleId"] for r in run["results"]} == {"DET008"}


# -- the acceptance gate --------------------------------------------------


def test_src_repro_is_clean():
    """In-process, every whole-program rule over src/repro finds nothing.

    Every taint class above is proven to fire on fixtures; this proves
    the production tree carries none of them — and that every declared
    crash boundary has a crash test, no live state crosses a fork, and
    every def is reached from a non-test entry point or marked as kept.
    """
    findings = scan(SRC_REPRO)
    assert findings == [], "\n".join(f.render() for f in findings)
