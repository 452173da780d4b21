"""Analysis engine: file collection and rule execution.

The engine produces a flat, sorted list of Findings; the exit-code
policy lives in cli.py so the engine can be reused by the selftest
with fixture trees.
"""

import pathlib

import rules as rules_mod
from textmodel import build_model

SRC_EXTS = {".cc", ".hh"}
DEFAULT_DIRS = ("src", "tools", "bench", "tests")


class LintError(Exception):
    """Unrecoverable analyzer misconfiguration (exit code 2)."""


def collect_files(root, paths):
    """Resolve @p paths (default: the standard tree dirs) to a sorted
    list of source files under @p root. The analyzer's own fixture
    tree is always excluded — it exists to contain violations."""
    bases = []
    if paths:
        for p in paths:
            cand = pathlib.Path(p)
            if not cand.is_absolute():
                cand = root / cand
            if not cand.exists():
                raise LintError(f"no such path: {p}")
            bases.append(cand)
    else:
        bases = [root / d for d in DEFAULT_DIRS if (root / d).is_dir()]
    files = []
    for base in bases:
        if base.is_file():
            files.append(base)
            continue
        files.extend(
            p for p in sorted(base.rglob("*")) if p.suffix in SRC_EXTS)
    out = []
    seen = set()
    for p in files:
        rel = p.relative_to(root)
        if "dcl1lint" in rel.parts:
            continue
        if rel not in seen:
            seen.add(rel)
            out.append(p)
    return sorted(out)


def run(root, paths=None):
    """Lint @p paths under @p root.

    Returns (findings, models): findings are suppression-filtered and
    sorted, errors and R0 warnings together.
    """
    root = pathlib.Path(root).resolve()
    files = collect_files(root, paths)
    if not files:
        raise LintError(f"no source files under {root} — bad --root?")
    models = [build_model(root, p) for p in files]

    ctx = rules_mod.Context(root, {m.rel: m for m in models})
    findings = []
    for model in models:
        for rule in rules_mod.FILE_RULES:
            findings.extend(rule.check(model, ctx))
    for rule in rules_mod.PROJECT_RULES:
        findings.extend(rule.check_project(models, ctx))
    findings.extend(_stale_suppressions(models))
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return findings, models


def _stale_suppressions(models):
    """R0: annotations that suppressed nothing this run."""
    r0 = rules_mod.STALE_SUPPRESSION
    out = []
    for model in models:
        for s in model.suppressions:
            if s.used:
                continue
            if s.token not in rules_mod.KNOWN_TOKENS:
                msg = (f"unknown suppression token `lint: {s.token}` "
                       "(see --list-rules for the valid tokens)")
            else:
                msg = (f"stale suppression `lint: {s.token}`: nothing "
                       "on this line or the line below matches the "
                       "rule it belongs to — delete it")
            out.append(rules_mod.Finding(
                rule_id=r0.id,
                rule_name=r0.name,
                path=model.rel,
                line=s.line,
                message=msg,
                severity="warning",
                snippet=(model.raw_lines[s.line - 1].strip()
                         if s.line <= len(model.raw_lines) else ""),
            ))
    return out
