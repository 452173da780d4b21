#!/usr/bin/env python3
"""dcl1lint self-test: fixtures, SARIF shape, CLI edge cases.

Each fixture directory under fixtures/ is a miniature repository root.
Expected findings are declared inline: a `// expect: R9` marker in the
fixture source means exactly one R9 finding on that line (markers may
list several rule IDs). The comparison is exact in both directions, so
unmarked lines double as the per-rule "clean" cases.

Registered in CTest as LintSelftest; run directly with
  python3 tools/dcl1lint/selftest.py
"""

import contextlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cli  # noqa: E402
import engine  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
EXPECT_RE = re.compile(r"expect:\s*((?:R\d+\s*)+)")

_failures = []


def check(cond, what):
    if cond:
        return
    _failures.append(what)
    print(f"FAIL: {what}")


def expected_findings(fixture_root):
    """Multiset of (path, line, rule) from the inline markers."""
    expected = []
    for path in sorted(fixture_root.rglob("*")):
        if path.suffix not in engine.SRC_EXTS:
            continue
        rel = path.relative_to(fixture_root).as_posix()
        text = path.read_text(encoding="utf-8")
        for ln, line in enumerate(text.splitlines(), start=1):
            comment = line.split("//", 1)
            if len(comment) < 2:
                continue
            m = EXPECT_RE.search(comment[1])
            if m:
                for rid in m.group(1).split():
                    expected.append((rel, ln, rid))
    return sorted(expected)


def run_fixture(fixture_root):
    findings, _ = engine.run(fixture_root)
    got = sorted(
        (f.path, f.line, f.rule_id) for f in findings)
    want = expected_findings(fixture_root)
    check(want, f"{fixture_root.name}: fixture declares no "
                "expectations — add `// expect: <rule>` markers")
    if got != want:
        missing = [x for x in want if x not in got]
        surplus = [x for x in got if x not in want]
        check(False,
              f"{fixture_root.name}: findings mismatch\n"
              f"  missing: {missing}\n  surplus: {surplus}")
    else:
        print(f"  {fixture_root.name}: "
              f"{len(want)} expected finding(s) matched")


def _cli(args):
    """Run the CLI with stdout captured; returns (rc, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(args)
    return rc, out.getvalue()


def run_sarif_check(tmp):
    """SARIF output must be valid JSON with the fields the upload
    action needs."""
    sarif_path = tmp / "out.sarif"
    rc, _ = _cli(["--root", str(FIXTURES / "r9_tick_purity"),
                  "--sarif", str(sarif_path)])
    check(rc == 1, "sarif: fixture should still exit 1")
    doc = json.loads(sarif_path.read_text(encoding="utf-8"))
    check(doc.get("version") == "2.1.0", "sarif: version must be 2.1.0")
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    check(driver["name"] == "dcl1lint", "sarif: driver name")
    rule_ids = {r["id"] for r in driver["rules"]}
    check(rule_ids == {f"R{i}" for i in range(13)},
          f"sarif: rule metadata incomplete: {sorted(rule_ids)}")
    results = run["results"]
    check(results, "sarif: fixture findings must appear as results")
    for r in results:
        check(r["ruleId"] in rule_ids, "sarif: result references rule")
        loc = r["locations"][0]["physicalLocation"]
        check(loc["artifactLocation"]["uri"].startswith("src/"),
              "sarif: result carries a repo-relative uri")
        check(loc["region"]["startLine"] >= 1, "sarif: line number")
    print("  sarif export: OK")


def run_cli_edges(tmp):
    rc, _ = _cli(["--root", str(tmp / "definitely-missing")])
    check(rc == 2, "cli: missing root should exit 2")
    rc, out = _cli(["--list-rules"])
    check(rc == 0 and "R11" in out and "layering" in out,
          "cli: --list-rules should describe every rule")
    print("  cli edge cases: OK")


def main():
    fixtures = sorted(
        d for d in FIXTURES.iterdir() if d.is_dir())
    check(len(fixtures) >= 16,
          f"expected at least one fixture per rule, found "
          f"{len(fixtures)}")
    print(f"dcl1lint selftest: {len(fixtures)} fixtures")
    for fixture_root in fixtures:
        run_fixture(fixture_root)
    with tempfile.TemporaryDirectory(prefix="dcl1lint-selftest-") \
            as tmpdir:
        tmp = pathlib.Path(tmpdir)
        run_sarif_check(tmp)
        run_cli_edges(tmp)
    if _failures:
        print(f"dcl1lint selftest: {len(_failures)} failure(s)")
        return 1
    print("dcl1lint selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
