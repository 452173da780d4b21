"""Command-line front end for dcl1lint.

Exit codes: 0 clean (warnings allowed), 1 error findings,
2 analyzer misconfiguration.
"""

import argparse
import pathlib
import sys

import engine
import rules as rules_mod
import sarif as sarif_mod


def _default_root():
    return pathlib.Path(__file__).resolve().parent.parent.parent


def _list_rules():
    print("dcl1lint rules (suppress with `// lint: <token>` on the "
          "flagged line or the line above):\n")
    for rule in rules_mod.rule_metadata():
        token = f"lint: {rule.token}" if rule.token else "—"
        print(f"  {rule.id:<4} {rule.name:<18} {rule.severity:<8} "
              f"{token}")
        for chunk in _wrap(rule.description, 66):
            print(f"       {chunk}")
        print()


def _wrap(text, width):
    words = text.split()
    line = []
    for w in words:
        if line and len(" ".join(line + [w])) > width:
            yield " ".join(line)
            line = []
        line.append(w)
    if line:
        yield " ".join(line)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="dcl1lint",
        description="Simulator-aware static analysis for dcl1sim.")
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src tools "
                         "bench tests)")
    ap.add_argument("--root", type=pathlib.Path,
                    default=_default_root(),
                    help="repository root (default: two levels above "
                         "this package)")
    ap.add_argument("--sarif", metavar="FILE",
                    help="write a SARIF 2.1.0 log to FILE ('-' for "
                         "stdout)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule reference and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0

    root = args.root.resolve()
    try:
        findings, models = engine.run(root, paths=args.paths)
    except engine.LintError as e:
        print(f"dcl1lint: {e}", file=sys.stderr)
        return 2

    errors = [f for f in findings if f.severity == "error"]
    warnings = [f for f in findings if f.severity == "warning"]
    for f in errors:
        print(f"{f.path}:{f.line}: [{f.rule_id}/{f.rule_name}] "
              f"{f.message}")
    for f in warnings:
        print(f"{f.path}:{f.line}: warning: [{f.rule_id}/"
              f"{f.rule_name}] {f.message}")

    if args.sarif:
        text = sarif_mod.render(
            findings, rules_mod.rule_metadata(),
            tool_version=_tool_version())
        if args.sarif == "-":
            sys.stdout.write(text)
        else:
            pathlib.Path(args.sarif).write_text(text, encoding="utf-8")

    if errors:
        print(f"dcl1lint: {len(errors)} violation(s)")
        return 1
    extra = f", {len(warnings)} warning(s)" if warnings else ""
    print(f"dcl1lint: OK ({len(models)} files{extra})")
    return 0


def _tool_version():
    try:
        import __init__ as pkg
        return pkg.__version__
    except Exception:
        return "2.0"
