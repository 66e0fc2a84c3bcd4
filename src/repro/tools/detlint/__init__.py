"""detlint — determinism & invariant static analysis for this repo.

One analyzer, one pass: per-file pattern rules (DET*, INV*) and
whole-program rules (DF*: a project symbol and call graph,
interprocedural nondeterminism taint, crash-boundary coverage, fork
safety and reachability) over modules parsed once.  Run it with
``python -m repro.tools.detlint [paths]``; the rules and their
rationale live in ``docs/STATIC_ANALYSIS.md``.
"""

from repro.tools.detlint.engine import (
    Finding,
    RULES,
    run_paths,
)

__all__ = ["Finding", "RULES", "run_paths"]
