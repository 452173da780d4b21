"""SARIF 2.1.0 export for code-scanning upload: one run, one result
per finding."""

import json

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def _rule_descriptor(rule):
    return {
        "id": rule.id,
        "name": rule.name,
        "shortDescription": {"text": rule.name},
        "fullDescription": {"text": rule.description},
        "defaultConfiguration": {
            "level": "error" if rule.severity == "error" else "warning",
        },
        "properties": (
            {"suppressionToken": f"lint: {rule.token}"}
            if rule.token else {}
        ),
    }


def _result(finding):
    result = {
        "ruleId": finding.rule_id,
        "level": finding.severity,
        "message": {
            "text": f"[{finding.rule_id}/{finding.rule_name}] "
                    f"{finding.message}",
        },
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "SRCROOT",
                },
                "region": {"startLine": max(1, finding.line)},
            },
        }],
    }
    if finding.snippet:
        loc = result["locations"][0]["physicalLocation"]
        loc["region"]["snippet"] = {"text": finding.snippet}
    return result


def render(findings, rules, tool_version):
    """Serialize @p findings to a SARIF JSON string."""
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "dcl1lint",
                    "informationUri":
                        "https://example.invalid/dcl1sim/dcl1lint",
                    "version": tool_version,
                    "rules": [_rule_descriptor(r) for r in rules],
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"description": {
                    "text": "repository root"}},
            },
            "results": [_result(f) for f in findings],
        }],
    }
    return json.dumps(log, indent=2) + "\n"
