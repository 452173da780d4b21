"""Lexical source model: channels, suppressions, and function spans.

The regex linter this package replaces matched patterns against raw
lines, so a word in a comment or a log-message string could suppress or
trigger a rule. Here every file is lexed once into separate channels:

  code      — source with comments removed and literal contents blanked
              (string literals become `""`, char literals `''`)
  comments  — the text of `//` line comments, per line; suppression
              pragmas are only recognized here, so prose in block
              comments can *mention* `lint: wallclock-ok` without
              suppressing anything
  strings   — string-literal contents, attributed to the line where the
              literal starts (rule R4 reads stat names from this)

On top of the code channel a brace-scope pass recovers function spans
(name + line extent) for the hot-path purity rule.
"""

import re
from dataclasses import dataclass, field

SUPPRESS_RE = re.compile(r"lint:\s*([a-z0-9][a-z0-9-]*-ok)")

# Keywords that can precede a parenthesis+brace without being functions.
_NON_FUNC_HEADS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "alignof", "new", "delete", "throw", "case", "default",
    "operator", "alignas", "decltype", "static_assert", "assert",
}

_RAW_STR_OPEN = re.compile(r'(?:u8|[uUL])?R$')


@dataclass
class FuncSpan:
    """One function/method body: [open_line, end_line] inclusive."""

    name: str  # unqualified name, e.g. "access"
    qualname: str  # as written, e.g. "CacheBank::access"
    sig_line: int  # line the signature's opening paren sits on
    open_line: int = 0  # line of the body's '{'
    end_line: int = 0  # line of the matching '}'


@dataclass
class Suppression:
    """One `// lint: <token>` pragma. Applies to its own line and the
    line below (matching the historical `same line or line above`
    lookup direction)."""

    token: str
    line: int
    used: bool = False


@dataclass
class FileModel:
    """Everything the rules need to know about one source file."""

    rel: str  # path relative to the scan root, posix separators
    parts: tuple  # rel split on '/'
    raw_lines: list
    code: list  # code channel, same line count as raw_lines
    comments: list  # //-comment text per line ("" when none)
    strings: list  # list[list[str]] literal contents per start line
    preproc: set  # 0-based indices of preprocessor lines
    includes: list = field(default_factory=list)  # (line, "mem/foo.hh")
    suppressions: list = field(default_factory=list)
    functions: list = field(default_factory=list)  # FuncSpan

    def suppressed(self, token, line):
        """True (and mark used) if @p token is annotated on @p line or
        the line above it."""
        hit = False
        for s in self.suppressions:
            if s.token == token and s.line in (line, line - 1):
                s.used = True
                hit = True
        return hit

    def enclosing_functions(self, line):
        """All FuncSpans whose body contains @p line (outermost
        first)."""
        return [
            f
            for f in self.functions
            if f.open_line <= line <= f.end_line
        ]


def _lex(text):
    """Split @p text into the code / comments / strings channels."""
    code_lines, comment_lines, string_lines = [], [], []
    code, comment = [], []
    strings = []
    i, n = 0, len(text)
    state = "code"
    str_start_line = 0
    cur_str = []
    raw_delim = None
    line_no = 0  # 0-based index of the line being built

    def flush_line():
        nonlocal code, comment, strings, line_no
        code_lines.append("".join(code))
        comment_lines.append("".join(comment))
        string_lines.append(strings)
        code, comment, strings = [], [], []
        line_no += 1

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            if state == "line_comment":
                state = "code"
            flush_line()
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                code.append(" ")
                i += 2
                continue
            if ch == '"':
                head = "".join(code)
                if _RAW_STR_OPEN.search(head):
                    # R"delim( ... )delim"
                    m = re.match(r'"([^(\s]*)\(', text[i:])
                    raw_delim = ")" + (m.group(1) if m else "") + '"'
                    state = "raw_string"
                    code.append('""')
                    str_start_line = line_no
                    cur_str = []
                    i += len(m.group(0)) if m else 1
                    continue
                state = "string"
                code.append('""')
                str_start_line = line_no
                cur_str = []
                i += 1
                continue
            if ch == "'":
                prev = code[-1] if code else ""
                if prev.isalnum() or prev == "_":
                    # C++14 digit separator (1'000'000) or a literal
                    # suffix; not a character literal.
                    i += 1
                    continue
                state = "char"
                code.append("''")
                i += 1
                continue
            code.append(ch)
            i += 1
            continue
        if state == "line_comment":
            comment.append(ch)
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        if state == "string":
            if ch == "\\":
                cur_str.append(text[i:i + 2])
                i += 2
                continue
            if ch == '"':
                state = "code"
                if str_start_line == line_no:
                    strings.append("".join(cur_str))
                elif str_start_line < len(string_lines):
                    # Started on an already-flushed line — cannot
                    # happen for a valid plain literal, be safe.
                    string_lines[str_start_line].append(
                        "".join(cur_str))
                i += 1
                continue
            cur_str.append(ch)
            i += 1
            continue
        if state == "char":
            if ch == "\\":
                i += 2
                continue
            if ch == "'":
                state = "code"
            i += 1
            continue
        if state == "raw_string":
            if text.startswith(raw_delim, i):
                state = "code"
                strings.append("".join(cur_str))
                i += len(raw_delim)
                continue
            cur_str.append(ch)
            i += 1
            continue
    flush_line()
    return code_lines, comment_lines, string_lines


def _mark_preproc(code_lines):
    """0-based indices of preprocessor lines (incl. continuations)."""
    preproc = set()
    cont = False
    for idx, line in enumerate(code_lines):
        if cont or line.lstrip().startswith("#"):
            preproc.add(idx)
            cont = line.rstrip().endswith("\\")
        else:
            cont = False
    return preproc


def _signature_span(stmt, sig_line):
    """If the statement text preceding a '{' looks like a function
    signature, return a FuncSpan, else None."""
    sig = stmt.strip()
    if "(" not in sig or ")" not in sig:
        return None
    # Tail after the last ')': empty, cv/ref qualifiers, or virt
    # specifiers. (A trailing annotation macro like DCL1_EXCLUDES(m)
    # supplies the last ')' itself.)
    tail = sig[sig.rindex(")") + 1:].strip()
    if tail and not re.fullmatch(
            r"(?:const|noexcept|override|final|&|&&|\s)+", tail):
        return None
    prefix = sig[: sig.index("(")].rstrip()
    m = re.search(r"([A-Za-z_~][A-Za-z0-9_]*)$", prefix)
    if not m:
        return None  # lambda or cast, e.g. `[&](int x)`
    name = m.group(1)
    if name in _NON_FUNC_HEADS or name[0].isdigit():
        return None
    qm = re.search(r"([A-Za-z_~][A-Za-z0-9_:~]*)$", prefix)
    return FuncSpan(name=name, qualname=qm.group(1), sig_line=sig_line)


def extract_functions(code_lines, preproc):
    """Brace-scope pass over the code channel.

    Conservative by design: anything that does not look like
    `[qualified-]name(params) [qualifiers] {` is treated as a
    non-function scope (namespace, class, control statement, lambda).
    Nested constructs attribute their lines to every enclosing
    function span, which is the behavior the hot-path rule wants.
    """
    functions = []
    stack = []  # FuncSpan or None per open brace
    stmt = []
    stmt_line = 1
    has_content = False
    for idx, line in enumerate(code_lines):
        ln = idx + 1
        if idx in preproc:
            continue
        for ch in line:
            if ch == "{":
                span = _signature_span("".join(stmt), stmt_line)
                if span:
                    span.open_line = ln
                stack.append(span)
                stmt = []
                has_content = False
            elif ch in ";}":
                if ch == "}" and stack:
                    span = stack.pop()
                    if span:
                        span.end_line = ln
                        functions.append(span)
                stmt = []
                has_content = False
            else:
                if not has_content and not ch.isspace():
                    stmt_line = ln
                    has_content = True
                stmt.append(ch)
        stmt.append(" ")
    functions.sort(key=lambda f: f.open_line)
    return functions


_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def build_model(root, path):
    """Lex @p path (under @p root) into a FileModel."""
    text = path.read_text(encoding="utf-8", errors="replace")
    rel = path.relative_to(root).as_posix()
    code, comments, strings = _lex(text)
    raw_lines = text.splitlines()
    # splitlines() drops a trailing empty segment _lex keeps; align.
    while len(raw_lines) < len(code):
        raw_lines.append("")
    preproc = _mark_preproc(code)
    model = FileModel(
        rel=rel,
        parts=tuple(rel.split("/")),
        raw_lines=raw_lines,
        code=code,
        comments=comments,
        strings=strings,
        preproc=preproc,
    )
    for idx, raw in enumerate(raw_lines):
        m = _INCLUDE_RE.match(raw)
        if m:
            model.includes.append((idx + 1, m.group(1)))
    for idx, comment in enumerate(comments):
        for m in SUPPRESS_RE.finditer(comment):
            model.suppressions.append(
                Suppression(token=m.group(1), line=idx + 1))
    model.functions = extract_functions(code, preproc)
    return model
