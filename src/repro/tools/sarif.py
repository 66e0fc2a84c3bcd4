"""SARIF 2.1.0 serialization for detlint's findings.

SARIF (Static Analysis Results Interchange Format) is what code hosts
ingest to annotate findings inline on PRs.  One function turns a list
of :class:`~repro.tools.detlint.engine.Finding` objects into a minimal,
valid ``sarif-version 2.1.0`` log: one run, one driver tool, one result
per finding, with the rule registry embedded so viewers can show the
one-line summaries.

Output is deterministic: findings are emitted in their (already stable)
sorted order, rules sorted by id, keys sorted by the JSON serializer —
two identical scans produce byte-identical SARIF.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from repro.tools.detlint.engine import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def sarif_log(
    tool_name: str,
    findings: Iterable[Finding],
    rules: Mapping[str, str],
    tool_version: str = "1.0.0",
    info_uri: str = "https://example.invalid/docs/STATIC_ANALYSIS.md",
) -> dict:
    """Build the SARIF log object (``rules`` maps code -> summary)."""
    findings = list(findings)
    seen_codes = {f.code for f in findings}
    rule_ids = sorted(set(rules) | seen_codes)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "version": tool_version,
                        "informationUri": info_uri,
                        "rules": [
                            {
                                "id": code,
                                "shortDescription": {
                                    "text": rules.get(code, code)
                                },
                            }
                            for code in rule_ids
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.code,
                        "level": "error",
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": f.path.replace("\\", "/"),
                                    },
                                    "region": {
                                        "startLine": max(f.line, 1),
                                        "startColumn": max(f.col, 1),
                                    },
                                }
                            }
                        ],
                    }
                    for f in findings
                ],
            }
        ],
    }


def render_sarif(
    tool_name: str,
    findings: Iterable[Finding],
    rules: Mapping[str, str],
) -> str:
    """The SARIF log as a canonical (sorted-keys) JSON string."""
    return json.dumps(
        sarif_log(tool_name, findings, rules), indent=2, sort_keys=True
    )
