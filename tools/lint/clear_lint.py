#!/usr/bin/env python3
"""clear_lint: the repo's invariant lint suite.

Machine-checks the cross-cutting invariants the runtime determinism
matrices can only catch after the fact, and only on exercised paths:

  determinism   result-affecting layers (src/inject, src/explore,
                src/arch, src/core, src/plan) must be pure functions of
                the campaign spec and global sample indices: no wall
                clock, no ambient RNG, no environment reads, no
                unordered-container iteration feeding results, no
                pointer-value ordering, no locale-dependent formatting.
  wire-safety   bytes that crossed a socket or a disk boundary are only
                decoded through the bounds-checked util/bytes.h helpers;
                raw reinterpret_cast / memcpy decodes in wire-handling
                files are findings.
  fail-closed   switch dispatch over a wire-decoded discriminant
                (version, frame type, ack status, ...) must carry a
                refusing default: an unknown value is an error, never a
                fall-through.
  layering      the include graph must match the layer DAG documented in
                docs/ARCHITECTURE.md (configured in tools/lint/
                layers.json): src/arch must never include src/fleet.
  atomics       explicit non-seq_cst memory orders are only allowed in
                files the justification-carrying allowlist
                (tools/lint/atomics_allowlist.txt) names; stale entries
                and per-variable default/explicit order mixes are
                findings.

Usage:
  python3 tools/lint/clear_lint.py --root .                 # lint the repo
  python3 tools/lint/clear_lint.py --root . --json          # machine output
  python3 tools/lint/clear_lint.py --root . --checker layering
  python3 tools/lint/clear_lint.py --list-checkers

Exit codes: 0 no findings, 1 findings, 2 usage/config error.

Suppressions: a finding on line N is suppressed by an annotation on line
N or N-1 of the form

    // lint: allow(<checker>): <non-empty reason>

The reason is mandatory; a bare allow() is itself a finding.  The layer
DAG takes no exceptions: `allow(layering)` is refused (a finding of its
own, suppressing nothing), so a back-edge has to be fixed.  The
atomics checker additionally consults its per-file allowlist (see the
file's header comment for the entry grammar).

Implementation: token-level analysis over comment/string-blanked source
(the fallback that always works).  When the libclang python bindings are
importable, the comment/string blanking and token stream come from
clang.cindex instead, which is exact; the checkers themselves are
identical either way.  `--compile-commands` restricts the swept file set
to translation units the build actually compiles (plus all headers).
"""

import argparse
import json
import os
import re
import sys

# Bumped whenever a checker is added/removed or a finding-affecting rule
# changes.  `clear version --json` reports the same number (kept in sync
# by the lint self-test), so CI artifacts record which invariant set
# vetted a build.
CHECKER_SET_VERSION = 3

try:  # pragma: no cover - environment dependent
    import clang.cindex  # type: ignore

    HAVE_LIBCLANG = True
except ImportError:
    HAVE_LIBCLANG = False


class Finding:
    __slots__ = ("path", "line", "checker", "message")

    def __init__(self, path, line, checker, message):
        self.path = path
        self.line = line
        self.checker = checker
        self.message = message

    def render(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.checker,
                                   self.message)


ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)\s*(?::\s*(\S.*))?")
# Checkers whose findings no annotation may suppress.
REFUSED_ALLOWS = {"layering"}


class SourceFile:
    """One swept file: raw lines plus a comment/string-blanked shadow.

    `code[i]` is line i+1 with comments and string/char literals replaced
    by spaces (same length, so column arithmetic survives).  `allows` maps
    line -> set of checker names a `// lint: allow(...)` annotation on
    that line covers.
    """

    def __init__(self, root, relpath):
        self.relpath = relpath
        with open(os.path.join(root, relpath), "r", encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
        self.raw_lines = text.split("\n")
        self.code_lines = _blank_comments_and_strings(text).split("\n")
        self.allows = {}
        self.bad_allows = []  # (line, message): reason-less or refused allows
        for i, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            if m.group(1) in REFUSED_ALLOWS:
                self.bad_allows.append(
                    (i, "lint allow(%s) is refused: fix the dependency "
                        "instead of annotating it" % m.group(1)))
                continue
            if not m.group(2):
                self.bad_allows.append(
                    (i, "lint allow(%s) without a reason: annotations must "
                        "justify the deviation" % m.group(1)))
                continue
            self.allows.setdefault(i, set()).add(m.group(1))

    def allowed(self, line, checker):
        """An annotation on the finding line or the line above suppresses."""
        return (checker in self.allows.get(line, ()) or
                checker in self.allows.get(line - 1, ()))

    def layer(self):
        parts = self.relpath.split("/")
        if len(parts) >= 2 and parts[0] == "src":
            return parts[1]
        return None


def _blank_comments_and_strings(text):
    """Replaces //, /* */ comments and "..."/'...' literals with spaces.

    Newlines are preserved so line numbers survive.  When libclang is
    available the blanking comes from its exact token stream; the manual
    scanner below handles the same cases (escapes, line-continuations in
    strings are rare enough in this tree to ignore) and is what CI uses.
    """
    if HAVE_LIBCLANG:  # pragma: no cover - environment dependent
        blanked = _libclang_blank(text)
        if blanked is not None:
            return blanked
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = STRING
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = CHAR
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = NORMAL
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def _libclang_blank(text):  # pragma: no cover - environment dependent
    """Exact blanking via the libclang tokenizer; None on any failure."""
    try:
        idx = clang.cindex.Index.create()
        tu = idx.parse("lint_tu.cpp", args=["-std=c++17", "-fsyntax-only"],
                       unsaved_files=[("lint_tu.cpp", text)],
                       options=clang.cindex.TranslationUnit
                       .PARSE_DETAILED_PROCESSING_RECORD)
    except Exception:
        return None
    chars = list(text)
    offsets = [0]
    for ln in text.split("\n")[:-1]:
        offsets.append(offsets[-1] + len(ln) + 1)

    def off(loc):
        return offsets[loc.line - 1] + loc.column - 1

    for tok in tu.get_tokens(extent=tu.cursor.extent):
        kind = tok.kind.name
        if kind not in ("COMMENT", "LITERAL"):
            continue
        if kind == "LITERAL" and not tok.spelling.startswith(('"', "'")):
            continue
        start, end = off(tok.extent.start), off(tok.extent.end)
        for i in range(max(0, start), min(len(chars), end)):
            if chars[i] != "\n":
                chars[i] = " "
    return "".join(chars)


# --------------------------------------------------------------------------
# determinism: result-affecting layers must not consult ambient state.

DETERMINISM_LAYERS = ("inject", "explore", "arch", "core", "plan")

_DET_PATTERNS = [
    (re.compile(r"\b(?:std::)?(?:system_clock|steady_clock|"
                r"high_resolution_clock)\s*::\s*now\b"),
     "wall/monotonic clock read in a result-affecting layer: results must "
     "be a pure function of the spec and global sample indices"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|localtime|gmtime)\s*\("),
     "OS clock call in a result-affecting layer"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() in a result-affecting layer"),
    (re.compile(r"\b(?:std::)?s?rand\s*\("),
     "C rand()/srand(): ambient RNG state; derive util::rng from the "
     "global sample index instead"),
    (re.compile(r"\b(?:std::)?random_device\b"),
     "std::random_device is nondeterministic; seed util::rng from the "
     "spec instead"),
    (re.compile(r"\b(?:set)?locale\b|\bimbue\s*\("),
     "locale-dependent behaviour in a result-affecting layer: float "
     "formatting/parsing must be locale-independent"),
    (re.compile(r"\b(?:std::)?(?:map|set)\s*<[^<>;=]*\*\s*[,>]"),
     "ordered container keyed on pointer values: iteration order depends "
     "on allocation addresses, not on the spec"),
    (re.compile(r"\b(?:std::)?(?:secure_)?getenv\s*\(|"
                r"\benv_(?:long|string|bytes)\s*\("),
     "environment read in a result-affecting layer: results must be a "
     "function of the stanza alone (take the value as a flag, or annotate "
     "why it cannot change results)"),
]

_UNORD_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s+(\w+)\s*[;{=(]")
_RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")


def check_determinism(files):
    findings = []
    for sf in files:
        if sf.layer() not in DETERMINISM_LAYERS:
            continue
        unordered_vars = set()
        for code in sf.code_lines:
            for m in _UNORD_DECL_RE.finditer(code):
                unordered_vars.add(m.group(1))
        for i, code in enumerate(sf.code_lines, start=1):
            for pat, msg in _DET_PATTERNS:
                if pat.search(code):
                    findings.append(
                        Finding(sf.relpath, i, "determinism", msg))
            m = _RANGE_FOR_RE.search(code)
            if m and m.group(1) in unordered_vars:
                findings.append(Finding(
                    sf.relpath, i, "determinism",
                    "iteration over unordered container '%s': bucket order "
                    "is implementation-defined and must not feed results "
                    "(collect + sort by a deterministic key instead)"
                    % m.group(1)))
    return findings


# --------------------------------------------------------------------------
# wire-safety: decode through util/bytes.h, never raw casts over payloads.

# Files whose job is to move decoded bytes (sockets, wire formats, disk
# packs).  util/bytes.h itself is the one sanctioned home for the raw
# operations (it IS the helper layer).
WIRE_FILE_RE = re.compile(
    r"src/(?:inject/(?:wire|cachepack)|explore/ledger|engine/protocol|"
    r"fleet/fleet|obs/metrics|util/socket)\.(?:h|cpp)$")

_WIRE_PATTERNS = [
    (re.compile(r"\breinterpret_cast\s*<"),
     "reinterpret_cast in wire-handling code: decode through the "
     "bounds-checked util/bytes.h readers"),
    (re.compile(r"\bmemcpy\s*\("),
     "raw memcpy in wire-handling code: payload bytes must go through "
     "util/bytes.h (unchecked length arithmetic corrupts silently)"),
    (re.compile(r"\bmemmove\s*\("),
     "raw memmove in wire-handling code: use util/bytes.h helpers"),
]


def check_wire_safety(files):
    findings = []
    for sf in files:
        if not WIRE_FILE_RE.search(sf.relpath):
            continue
        for i, code in enumerate(sf.code_lines, start=1):
            for pat, msg in _WIRE_PATTERNS:
                if pat.search(code):
                    findings.append(Finding(sf.relpath, i, "wire-safety", msg))
    return findings


# --------------------------------------------------------------------------
# fail-closed: switches over wire-decoded discriminants refuse unknowns.

# A switch controlling expression that names a decoded discriminant.
# Single-letter locals (the to-string helpers over internal enums) are
# deliberately NOT matched: their operand never crossed a trust boundary.
_DISPATCH_EXPR_RE = re.compile(
    r"\bversion\b|\.\s*type\b|\.\s*kind\b|\.\s*status\b|\.\s*outcome\b|"
    r"\bopcode\b|\bframe_type\b|\bmsg_type\b|\brecord_kind\b")
_SWITCH_RE = re.compile(r"\bswitch\s*\(")


def _match_paren(text, open_pos):
    """Index just past the ')' matching the '(' at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _match_brace(text, pos):
    """(open_idx, close_idx) of the first {...} block at/after pos."""
    open_idx = text.find("{", pos)
    if open_idx < 0:
        return (-1, -1)
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return (open_idx, i)
    return (open_idx, -1)


_REFUSING_RE = re.compile(
    r"\breturn\b|\bthrow\b|\babort\s*\(|\bdeclare_dead\b|\bfail\w*\s*\(|"
    r"\bkBad\w*|\bkCorrupt\w*|\bkVersionUnsupported\b|\bUnsupported\b|"
    r"\berror\w*\s*\(|=\s*false\b")


def check_fail_closed(files):
    findings = []
    for sf in files:
        if not WIRE_FILE_RE.search(sf.relpath):
            continue
        code = "\n".join(sf.code_lines)
        for m in _SWITCH_RE.finditer(code):
            open_pos = code.find("(", m.start())
            close = _match_paren(code, open_pos)
            if close < 0:
                continue
            expr = code[open_pos + 1:close - 1]
            if not _DISPATCH_EXPR_RE.search(expr):
                continue
            line = code.count("\n", 0, m.start()) + 1
            body_open, body_close = _match_brace(code, close)
            if body_open < 0 or body_close < 0:
                continue
            body = code[body_open + 1:body_close]
            dm = re.search(r"\bdefault\s*:", body)
            if not dm:
                findings.append(Finding(
                    sf.relpath, line, "fail-closed",
                    "switch over wire-decoded '%s' has no default: an "
                    "unknown value must be refused, not fall through "
                    "(add `default: <refuse>;`)" % expr.strip()))
                continue
            default_body = body[dm.end():]
            nxt = re.search(r"\bcase\b", default_body)
            if nxt:
                default_body = default_body[:nxt.start()]
            stripped = re.sub(r"[\s;}]|\bbreak\b", "", default_body)
            if not stripped or not _REFUSING_RE.search(default_body):
                findings.append(Finding(
                    sf.relpath, line, "fail-closed",
                    "default case for wire-decoded '%s' does not refuse: "
                    "an unknown value must produce an error, not a silent "
                    "break" % expr.strip()))
    return findings


# --------------------------------------------------------------------------
# layering: the include graph must match the documented layer DAG.

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def load_layer_config(config_path):
    with open(config_path, "r", encoding="utf-8") as f:
        cfg = json.load(f)
    return cfg["layers"]


def check_layering(files, layers):
    findings = []
    known = set(layers.keys())
    for sf in files:
        layer = sf.layer()
        if layer is None:
            continue
        if layer not in known:
            findings.append(Finding(
                sf.relpath, 1, "layering",
                "layer 'src/%s' is not in tools/lint/layers.json: add it "
                "with its allowed dependencies" % layer))
            continue
        allowed = set(layers[layer]) | {layer}
        for i, code in enumerate(sf.code_lines, start=1):
            # The blanker turns the quoted path into spaces (it is a
            # string literal), so detect the directive on the blanked
            # line -- which kills commented-out includes -- and read the
            # path from the raw one.
            if not re.match(r"^\s*#\s*include\b", code):
                continue
            m = _INCLUDE_RE.match(sf.raw_lines[i - 1])
            if not m:
                continue
            target = m.group(1).split("/")[0]
            if "/" not in m.group(1) or target not in known:
                continue  # system-ish or non-layer include
            if target not in allowed:
                findings.append(Finding(
                    sf.relpath, i, "layering",
                    "src/%s must not include src/%s: the layer DAG in "
                    "docs/ARCHITECTURE.md allows {%s}" %
                    (layer, target, ", ".join(sorted(allowed - {layer})))))
    return findings


# --------------------------------------------------------------------------
# atomics: explicit non-seq_cst orders only in justified, allowlisted files.

_ORDER_RE = re.compile(
    r"\bmemory_order_(relaxed|acquire|release|acq_rel|consume)\b")
# name.load( / name.store( / name.fetch_xxx( / name.compare_exchange_xxx(
_ATOMIC_OP_RE = re.compile(
    r"(\w+)\s*[.]\s*(load|store|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|exchange|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\(([^;]*?)\)")


def load_atomics_allowlist(path):
    """path -> entry line.  Grammar: `<path>  # <justification>`."""
    allow = {}
    errors = []
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "#" in line:
                p, just = line.split("#", 1)
                p, just = p.strip(), just.strip()
            else:
                p, just = line, ""
            if not just:
                errors.append(
                    (ln, "allowlist entry '%s' has no justification: every "
                         "relaxed-order file must say why it is safe" % p))
                continue
            allow[p] = ln
    return allow, errors


def check_atomics(files, allowlist_path, root):
    allow, entry_errors = load_atomics_allowlist(allowlist_path)
    try:
        al_rel = os.path.relpath(allowlist_path, root).replace(os.sep, "/")
    except ValueError:
        al_rel = allowlist_path
    findings = [
        Finding(al_rel, ln, "atomics", msg) for ln, msg in entry_errors
    ]
    used = set()
    for sf in files:
        explicit_vars = {}  # var -> first explicit-order line
        default_sites = []  # (line, var)
        file_has_order = False
        for i, code in enumerate(sf.code_lines, start=1):
            if _ORDER_RE.search(code):
                file_has_order = True
                if sf.relpath not in allow:
                    if not sf.allowed(i, "atomics"):
                        findings.append(Finding(
                            sf.relpath, i, "atomics",
                            "explicit memory order outside the allowlist: "
                            "add the file to tools/lint/"
                            "atomics_allowlist.txt with a justification, "
                            "or use the seq_cst default"))
                if re.search(r"\bmemory_order_consume\b", code):
                    findings.append(Finding(
                        sf.relpath, i, "atomics",
                        "memory_order_consume is deprecated and promoted "
                        "to acquire by every compiler: say acquire"))
            for m in _ATOMIC_OP_RE.finditer(code):
                var, args = m.group(1), m.group(3)
                if "memory_order" in args:
                    explicit_vars.setdefault(var, i)
                elif m.group(2) in ("load", "store", "fetch_add",
                                    "fetch_sub", "exchange"):
                    default_sites.append((i, var))
        if file_has_order and sf.relpath in allow:
            used.add(sf.relpath)
        for i, var in default_sites:
            if var in explicit_vars and not sf.allowed(i, "atomics"):
                findings.append(Finding(
                    sf.relpath, i, "atomics",
                    "atomic '%s' mixes a default (seq_cst) operation here "
                    "with an explicit order at line %d: pick one ordering "
                    "discipline per variable" % (var, explicit_vars[var])))
    for p in sorted(set(allow) - used):
        findings.append(Finding(
            al_rel, allow[p], "atomics",
            "stale allowlist entry '%s': the file no longer uses explicit "
            "memory orders (or was removed); delete the entry" % p))
    return findings


# --------------------------------------------------------------------------

CHECKERS = {
    "determinism": lambda files, ctx: check_determinism(files),
    "wire-safety": lambda files, ctx: check_wire_safety(files),
    "fail-closed": lambda files, ctx: check_fail_closed(files),
    "layering": lambda files, ctx: check_layering(files, ctx["layers"]),
    "atomics": lambda files, ctx: check_atomics(files, ctx["atomics_allow"],
                                                ctx["root"]),
}


def sweep_files(root, compile_commands):
    """Relative paths of every .h/.cpp under src/ (TU-restricted by
    compile_commands when given; headers are always swept)."""
    tus = None
    if compile_commands:
        with open(compile_commands, "r", encoding="utf-8") as f:
            entries = json.load(f)
        tus = set()
        for e in entries:
            p = os.path.normpath(
                os.path.join(e.get("directory", ""), e["file"]))
            try:
                rel = os.path.relpath(p, root)
            except ValueError:
                continue
            if rel.startswith("src" + os.sep):
                tus.add(rel.replace(os.sep, "/"))
    out = []
    src_root = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cpp")):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            rel = rel.replace(os.sep, "/")
            if tus is not None and rel.endswith(".cpp") and rel not in tus:
                continue
            out.append(rel)
    return sorted(out)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="clear_lint",
        description="Invariant lint suite (see docs/STATIC_ANALYSIS.md).")
    ap.add_argument("--root", default=".",
                    help="repo root (contains src/)")
    ap.add_argument("--checker", action="append", default=None,
                    metavar="NAME", help="run only this checker (repeatable)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json restricting the .cpp sweep "
                         "to built translation units")
    ap.add_argument("--layers-config", default=None,
                    help="layer DAG json (default: tools/lint/layers.json "
                         "under --root)")
    ap.add_argument("--atomics-allowlist", default=None,
                    help="default: tools/lint/atomics_allowlist.txt under "
                         "--root")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable findings")
    ap.add_argument("--list-checkers", action="store_true")
    ap.add_argument("--version", action="store_true",
                    help="print the checker-set version")
    args = ap.parse_args(argv)

    if args.version:
        print(CHECKER_SET_VERSION)
        return 0
    if args.list_checkers:
        for name in sorted(CHECKERS):
            print(name)
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print("clear_lint: no src/ under --root %s" % root, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    layers_config = args.layers_config or os.path.join(
        root, "tools", "lint", "layers.json")
    if not os.path.exists(layers_config):
        layers_config = os.path.join(here, "layers.json")
    atomics_allowlist = args.atomics_allowlist or os.path.join(
        root, "tools", "lint", "atomics_allowlist.txt")
    if not os.path.exists(atomics_allowlist):
        atomics_allowlist = os.path.join(here, "atomics_allowlist.txt")

    selected = args.checker or sorted(CHECKERS)
    for name in selected:
        if name not in CHECKERS:
            print("clear_lint: unknown checker '%s' (try --list-checkers)"
                  % name, file=sys.stderr)
            return 2

    try:
        ctx = {
            "layers": load_layer_config(layers_config),
            "atomics_allow": atomics_allowlist,
            "root": root,
        }
    except (OSError, KeyError, json.JSONDecodeError) as e:
        print("clear_lint: bad config: %s" % e, file=sys.stderr)
        return 2

    files = [SourceFile(root, rel)
             for rel in sweep_files(root, args.compile_commands)]

    findings = []
    for sf in files:
        for line, msg in sf.bad_allows:
            findings.append(Finding(sf.relpath, line, "lint-allow", msg))
    for name in selected:
        for f in CHECKERS[name](files, ctx):
            sf = next((s for s in files if s.relpath == f.path), None)
            if sf is not None and sf.allowed(f.line, f.checker):
                continue
            findings.append(f)

    findings.sort(key=lambda f: (f.path, f.line, f.checker))
    if args.json:
        print(json.dumps({
            "schema": "clear-lint-v1",
            "checker_set_version": CHECKER_SET_VERSION,
            "checkers": selected,
            "libclang": HAVE_LIBCLANG,
            "findings": [{"file": f.path, "line": f.line,
                          "checker": f.checker, "message": f.message}
                         for f in findings],
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        print("clear_lint: %d finding%s over %d files (checker set v%d%s)"
              % (len(findings), "" if len(findings) == 1 else "s",
                 len(files), CHECKER_SET_VERSION,
                 ", libclang" if HAVE_LIBCLANG else ", token fallback"),
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
