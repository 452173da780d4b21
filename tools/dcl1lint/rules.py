"""Rule registry for dcl1lint.

Each rule has a stable ID (R1..R12 — R0 is the analyzer's own
stale-suppression check), a short name, and a suppression token that is
honoured when written as a `// lint: <token>` line comment on the
flagged line or the line directly above it. R1–R8 keep the exact
semantics (scopes, patterns, messages) of the retired regex linter,
tools/lint_sim.py; R9–R12 are new and need the lexical model.

Per-file rules implement check(model, ctx); project rules implement
check_project(models, ctx) and see the whole include graph.
"""

import re
from dataclasses import dataclass, field


@dataclass
class Finding:
    rule_id: str
    rule_name: str
    path: str
    line: int
    message: str
    severity: str = "error"  # "error" | "warning"
    snippet: str = ""


class Context:
    """Shared engine state the rules may consult."""

    def __init__(self, root, models_by_rel):
        self.root = root
        self.models_by_rel = models_by_rel

    def paired_header_text(self, model):
        """Raw text of the .hh next to a .cc (decls live in headers,
        iteration happens in the implementation file)."""
        if not model.rel.endswith(".cc"):
            return ""
        header_rel = model.rel[:-3] + ".hh"
        header = self.models_by_rel.get(header_rel)
        if header:
            return "\n".join(header.code)
        path = self.root / header_rel
        if path.is_file():
            return path.read_text(encoding="utf-8", errors="replace")
        return ""


def _in_src(model):
    return model.parts[0] == "src"


def _snippet(model, line):
    if 1 <= line <= len(model.raw_lines):
        return model.raw_lines[line - 1].strip()
    return ""


def _finding(rule, model, line, message, severity="error"):
    return Finding(
        rule_id=rule.id,
        rule_name=rule.name,
        path=model.rel,
        line=line,
        message=message,
        severity=severity,
        snippet=_snippet(model, line),
    )


class LibcRandRule:
    """R1: seeded-Rng-only randomness."""

    id = "R1"
    name = "no-libc-rand"
    token = "libc-rand-ok"
    severity = "error"
    description = ("rand()/srand()/random() are banned: simulation "
                   "randomness must flow through the seeded Rng so "
                   "runs stay reproducible.")
    RE = re.compile(r"(?<![\w:.])(?:s?rand|random)\s*\(")

    def check(self, model, ctx):
        for idx, code in enumerate(model.code):
            ln = idx + 1
            if self.RE.search(code) and not model.suppressed(
                    self.token, ln):
                yield _finding(self, model, ln,
                               "use the seeded Rng, not libc rand")


class UnorderedIterRule:
    """R2: no iteration over unordered containers in simulation code."""

    id = "R2"
    name = "no-unordered-iter"
    token = "unordered-iter-ok"
    severity = "error"
    description = ("range-for over an unordered container inside src/ "
                   "is banned unless annotated: iteration order is "
                   "unspecified and poisons same-seed determinism the "
                   "moment it feeds any simulated decision.")
    RE_DECL = re.compile(
        r"std::unordered_(?:map|set)\s*<[^;{]*>\s*(\w+)\s*[;{=]")

    def check(self, model, ctx):
        if not _in_src(model):
            return
        names = set(self.RE_DECL.findall("\n".join(model.code)))
        names |= set(
            self.RE_DECL.findall(ctx.paired_header_text(model)))
        if not names:
            return
        re_iter = re.compile(
            r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))?("
            + "|".join(re.escape(n) for n in sorted(names))
            + r")\s*\)")
        for idx, code in enumerate(model.code):
            ln = idx + 1
            if re_iter.search(code) and not model.suppressed(
                    self.token, ln):
                yield _finding(
                    self, model, ln,
                    "iterating an unordered container; order is "
                    "unspecified — annotate audit-only loops with "
                    f"`lint: {self.token}`")


class NakedNewRule:
    """R3: ownership must be expressed with smart pointers."""

    id = "R3"
    name = "no-naked-new"
    token = "naked-new-ok"
    severity = "error"
    description = ("`new X` outside make_unique/make_shared is banned "
                   "in src/; ownership must be expressed with smart "
                   "pointers.")
    RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_][\w:<>, ]*[({]")

    def check(self, model, ctx):
        if not _in_src(model):
            return
        for idx, code in enumerate(model.code):
            ln = idx + 1
            if (self.RE.search(code)
                    and "make_unique" not in code
                    and "make_shared" not in code
                    and not model.suppressed(self.token, ln)):
                yield _finding(self, model, ln, "use std::make_unique")


class StatsOnceRule:
    """R4: one StatGroup must not register a stat name twice.

    The regex linter intended this rule but matched against lines whose
    string literals had already been blanked, so it could never fire;
    this implementation reads the names from the string channel.
    """

    id = "R4"
    name = "stats-once"
    token = "stats-once-ok"
    severity = "error"
    description = ("one registration scope (function) must not "
                   "register the same stat name twice in "
                   "addScalar/addDistribution (copy-paste duplicate "
                   "guard); separate functions build separate "
                   "StatGroups and may reuse names.")
    RE_CALL = re.compile(r"add(?:Scalar|Distribution)\s*\(\s*(\"\")?")

    def check(self, model, ctx):
        seen = {}
        for idx, code in enumerate(model.code):
            ln = idx + 1
            m = self.RE_CALL.search(code)
            if not m:
                continue
            spans = model.enclosing_functions(ln)
            scope = id(spans[-1]) if spans else None
            # The name is the first literal on this line when the call
            # and its first argument share a line, else the first
            # literal on the next line (wrapped call).
            if m.group(1) and model.strings[idx]:
                name = model.strings[idx][0]
            elif (not m.group(1) and idx + 1 < len(model.strings)
                    and model.strings[idx + 1]):
                name = model.strings[idx + 1][0]
            else:
                continue
            key = (scope, name)
            if key in seen:
                if not model.suppressed(self.token, ln):
                    yield _finding(
                        self, model, ln,
                        f'stat "{name}" already registered at line '
                        f"{seen[key]}")
            else:
                seen[key] = ln


class PanicVsFatalRule:
    """R5: internal-state corruption must panic(), not fatal()."""

    id = "R5"
    name = "panic-vs-fatal"
    token = "fatal-ok"
    severity = "error"
    description = ("fatal() is for configuration/user errors; a "
                   "message reporting internal state corruption "
                   "(underflow, leak, double, corrupt, invariant) "
                   "marks a simulator bug and must use panic().")
    RE_FATAL = re.compile(r"(?<![\w.])fatal\s*\(")
    RE_BUG_WORDS = re.compile(
        r"underflow|overflow(?!ed queue)|leak|double|corrupt|invariant",
        re.IGNORECASE)

    def check(self, model, ctx):
        if not _in_src(model):
            return
        for idx, code in enumerate(model.code):
            ln = idx + 1
            if (self.RE_FATAL.search(code)
                    and self.RE_BUG_WORDS.search(model.raw_lines[idx])
                    and not model.suppressed(self.token, ln)):
                yield _finding(
                    self, model, ln,
                    "internal-state corruption is a simulator bug: "
                    "use panic(), reserve fatal() for config errors")


class WallclockRule:
    """R6: no host time in simulation code."""

    id = "R6"
    name = "no-wallclock"
    token = "wallclock-ok"
    severity = "error"
    description = ("wall-clock reads inside src/ break determinism. "
                   "The execution engine (src/exec/) and the host "
                   "phase profiler (src/prof/) time the *host* by "
                   "design; their audited sites carry "
                   "`lint: wallclock-ok`, honoured there and nowhere "
                   "else.")
    RE = re.compile(
        r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"
        r"|std::chrono::(?:system|steady|high_resolution)_clock"
        r"|(?<![\w:.])clock\s*\(\s*\)")

    def check(self, model, ctx):
        if not _in_src(model):
            return
        in_host_band = model.parts[:2] in (("src", "exec"),
                                           ("src", "prof"))
        for idx, code in enumerate(model.code):
            ln = idx + 1
            if not self.RE.search(code):
                continue
            annotated = model.suppressed(self.token, ln)
            if annotated and in_host_band:
                continue
            yield _finding(
                self, model, ln,
                "wall-clock time in simulation code breaks "
                f"determinism (`lint: {self.token}` is honoured only "
                "under src/exec/ and src/prof/)" if annotated else
                "wall-clock time in simulation code breaks "
                "determinism")


class RawWriteRule:
    """R7: result files must go through the crash-safe writers."""

    id = "R7"
    name = "no-rawwrite"
    token = "rawwrite-ok"
    severity = "error"
    description = ("raw output-file writes (std::ofstream, fopen) in "
                   "tools/, bench/ and src/exec/ are banned: a run "
                   "killed mid-write leaves a torn result file. Use "
                   "exec::AtomicFileWriter or exec::AppendLog.")
    # The retired regex linter's lookbehind rejected the "::" in
    # std::fopen, so the qualified spelling slipped through; match
    # both.
    RE = re.compile(
        r"std::ofstream|(?<![\w.])(?:std::|::)?fopen\s*\(")

    def check(self, model, ctx):
        if not (model.parts[0] in ("tools", "bench")
                or model.parts[:2] == ("src", "exec")):
            return
        for idx, code in enumerate(model.code):
            ln = idx + 1
            if self.RE.search(code) and not model.suppressed(
                    self.token, ln):
                yield _finding(
                    self, model, ln,
                    "raw result-file write can be torn/truncated by a "
                    "kill; use exec::AtomicFileWriter or "
                    f"exec::AppendLog (`lint: {self.token}` for "
                    "audited exceptions)")


class TraceGatedRule:
    """R8: trace events must flow through sampled emission paths."""

    id = "R8"
    name = "trace-gated"
    token = "trace-ok"
    severity = "error"
    description = ("direct trace-event emission (reqSlice / "
                   "counterEvent) outside src/stats/ bypasses 1-in-N "
                   "sampling and the event cap; go through the "
                   "attribution slow path or the timeline hook.")
    RE = re.compile(
        r"(?<![\w.])(?:\w+(?:\.|->))?(?:reqSlice|counterEvent)\s*\(")

    def check(self, model, ctx):
        if model.parts[:2] == ("src", "stats"):
            return
        for idx, code in enumerate(model.code):
            ln = idx + 1
            if self.RE.search(code) and not model.suppressed(
                    self.token, ln):
                yield _finding(
                    self, model, ln,
                    "direct trace emission bypasses sampling and the "
                    "event cap; go through the attribution slow path "
                    f"or the timeline hook (`lint: {self.token}` for "
                    "audited sites)")


class TickPurityRule:
    """R9: no heap growth inside per-cycle hot paths.

    tick()/access()/fill() run once per simulated cycle or request;
    allocation there is both a perf hazard and, for node-based
    containers, an address-layout source that can leak into iteration
    order. BoundedQueue::push is exempt: it models a hardware
    enqueue into a capacity-checked structure whose memory is bounded
    by construction.
    """

    id = "R9"
    name = "tick-purity"
    token = "alloc-ok"
    severity = "error"
    description = ("heap allocation inside tick()/access()/fill() hot "
                   "paths is banned: hoist into the constructor, use a "
                   "preallocated structure, or annotate the audited "
                   "bounded case with `lint: alloc-ok`.")
    HOT_NAMES = {"tick", "access", "fill"}
    RE_ALLOC = re.compile(
        r"(?<![\w.])new\s+[A-Za-z_]"
        r"|\bmake_(?:unique|shared)\s*<"
        r"|(?:\.|->)(?:push_back|emplace_back|push_front|"
        r"emplace_front|emplace|insert|resize|reserve)\s*\("
        r"|(?<![\w.])csprintf\s*\(")

    def check(self, model, ctx):
        if not _in_src(model):
            return
        hot = [f for f in model.functions if f.name in self.HOT_NAMES]
        if not hot:
            return
        flagged = set()
        for span in hot:
            for ln in range(span.open_line, span.end_line + 1):
                if ln in flagged:
                    continue
                code = model.code[ln - 1]
                if not self.RE_ALLOC.search(code):
                    continue
                if model.suppressed(self.token, ln):
                    flagged.add(ln)
                    continue
                flagged.add(ln)
                yield _finding(
                    self, model, ln,
                    f"heap allocation inside hot path "
                    f"{span.qualname}(): hoist it out of the per-"
                    f"cycle loop or annotate the audited bounded "
                    f"case with `lint: {self.token}`")


class PointerOrderRule:
    """R10: no ordered containers keyed on pointer values."""

    id = "R10"
    name = "ptr-order"
    token = "ptr-order-ok"
    severity = "error"
    description = ("std::map/std::set keyed on a pointer orders "
                   "elements by allocator-dependent addresses, which "
                   "vary run to run; key on a stable ID instead.")
    RE = re.compile(
        r"std::(?:multi)?(?:map|set)\s*<\s*[^,<>;]*\*"
        r"|std::less\s*<\s*[^<>;]*\*")

    def check(self, model, ctx):
        if not _in_src(model):
            return
        for idx, code in enumerate(model.code):
            ln = idx + 1
            if self.RE.search(code) and not model.suppressed(
                    self.token, ln):
                yield _finding(
                    self, model, ln,
                    "ordered container keyed on a pointer: iteration "
                    "order follows the allocator, not the simulation "
                    "— key on a stable ID (request id, set index)")


class EnvAccessRule:
    """R12: all environment reads go through common/env.hh."""

    id = "R12"
    name = "unchecked-env"
    token = "env-ok"
    severity = "error"
    description = ("direct getenv() bypasses the strict parse/fail "
                   "behavior of common/env.hh (envIntOr/envStrOr); a "
                   "silently misparsed knob produces plausible wrong "
                   "results.")
    RE = re.compile(r"\bgetenv\s*\(")
    EXEMPT = {"src/common/env.cc", "src/common/env.hh"}

    def check(self, model, ctx):
        if model.rel in self.EXEMPT:
            return
        for idx, code in enumerate(model.code):
            ln = idx + 1
            if self.RE.search(code) and not model.suppressed(
                    self.token, ln):
                yield _finding(
                    self, model, ln,
                    "direct getenv() skips strict parsing; use "
                    "envIntOr/envStrOr/envIsSet from common/env.hh")


class LayeringRule:
    """R11: the include graph must respect the architecture bands.

    A file may include headers from its own band or any band below it.
    The bands mirror the real architecture: common, the host phase
    profiler (prof — every tick path hooks into it, so it must sit
    below them all) and stats are substrate everything instruments
    through; the models (mem, noc, workload) and the check
    instrumentation they call into form one band (check speaks
    mem::MemRequest, mem instruments through the request ledger —
    that mutual coupling is why they share a band);
    gpucore composes mem+noc, core assembles systems, power models on
    top of core runs, exec drives whole systems, serve orchestrates
    multi-job traffic over exec-driven systems, and the entry points
    sit above everything. tests/ are exempt. The rule also rejects any
    file-level include cycle outright.
    """

    id = "R11"
    name = "layering"
    token = "layering-ok"
    severity = "error"
    description = ("an #include may only reach into the same or a "
                   "lower architecture band (common → prof → stats → "
                   "{mem, noc, workload, check} → gpucore → core → "
                   "power → exec → serve → {tools, bench}); "
                   "file-level include cycles are always errors.")
    BANDS = [
        ("common",),
        ("prof",),
        ("stats",),
        ("mem", "noc", "workload", "check"),
        ("gpucore",),
        ("core",),
        ("power",),
        ("exec",),
        ("serve",),
        ("tools", "bench", "examples"),
    ]

    def __init__(self):
        self.band_of = {}
        for rank, members in enumerate(self.BANDS):
            for m in members:
                self.band_of[m] = rank

    def _component(self, parts):
        if parts[0] == "src" and len(parts) > 1:
            return parts[1]
        return parts[0]

    def check_project(self, models, ctx):
        scanned = {m.rel: m for m in models}
        findings = []
        edges = {}
        for model in models:
            if model.parts[0] == "tests":
                continue
            comp = self._component(model.parts)
            rank = self.band_of.get(comp)
            if rank is None:
                continue
            for ln, inc in model.includes:
                inc_comp = inc.split("/")[0]
                inc_rank = self.band_of.get(inc_comp)
                # Resolve to a scanned file for cycle detection.
                for cand in ("src/" + inc, inc):
                    if cand in scanned:
                        edges.setdefault(model.rel, []).append(
                            (ln, cand))
                        break
                if inc_rank is None or inc_rank <= rank:
                    continue
                if model.suppressed(self.token, ln):
                    continue
                findings.append(_finding(
                    self, model, ln,
                    f"{comp} (band {rank}) must not include "
                    f"{inc_comp} (band {inc_rank}): an #include may "
                    "only reach the same or a lower architecture "
                    "band"))
        findings.extend(self._cycles(scanned, edges))
        return findings

    def _cycles(self, scanned, edges):
        # Iterative DFS cycle detection over the resolved file graph.
        WHITE, GREY, BLACK = 0, 1, 2
        color = {rel: 0 for rel in scanned}
        findings = []
        reported = set()
        for start in sorted(scanned):
            if color[start] != WHITE:
                continue
            stack = [(start, iter(edges.get(start, [])))]
            color[start] = GREY
            path = [start]
            while stack:
                rel, it = stack[-1]
                advanced = False
                for ln, dst in it:
                    if color.get(dst, BLACK) == GREY:
                        cycle = path[path.index(dst):] + [dst]
                        key = frozenset(cycle)
                        if key not in reported:
                            reported.add(key)
                            findings.append(_finding(
                                self, scanned[rel], ln,
                                "include cycle: "
                                + " -> ".join(cycle)))
                        continue
                    if color.get(dst, BLACK) == WHITE:
                        color[dst] = GREY
                        path.append(dst)
                        stack.append((dst, iter(edges.get(dst, []))))
                        advanced = True
                        break
                if not advanced:
                    color[rel] = BLACK
                    path.pop()
                    stack.pop()
        return findings


FILE_RULES = [
    LibcRandRule(), UnorderedIterRule(), NakedNewRule(),
    StatsOnceRule(), PanicVsFatalRule(), WallclockRule(),
    RawWriteRule(), TraceGatedRule(), TickPurityRule(),
    PointerOrderRule(), EnvAccessRule(),
]
PROJECT_RULES = [LayeringRule()]
ALL_RULES = FILE_RULES + PROJECT_RULES

# R0 is implemented by the engine (it needs the post-run suppression
# usage state) but registered here so --list-rules and SARIF metadata
# stay complete.
STALE_SUPPRESSION = type("StaleSuppression", (), {
    "id": "R0",
    "name": "stale-suppression",
    "token": None,
    "severity": "warning",
    "description": ("a `lint: <token>` annotation that no longer "
                    "suppresses anything (or names an unknown token) "
                    "is dead weight that misleads the next reader; "
                    "delete it."),
})()

KNOWN_TOKENS = {r.token for r in ALL_RULES if r.token}


def rule_metadata():
    """Stable-ordered rule list for --list-rules and SARIF."""
    return [STALE_SUPPRESSION] + sorted(
        ALL_RULES, key=lambda r: int(r.id[1:]))
