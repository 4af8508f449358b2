#!/usr/bin/env python3
"""Link-closure check: every library function a production binary links.

`libclear.a` should define only what `clear`, `paper_tables` and the
examples use.  This check lists the functions of the library that
survive in none of those binaries after the linker dropped every
unreferenced section, and fails unless each one is named in an
allowlist with the reason it stays:

    python3 tools/link_closure.py --build-dir build-linkclosure

It reads two kinds of library function (`nm -C libclear.a`): the
external ones (`T`), and the inline ones defined in headers (`W`, which
the build emits with -fkeep-inline-functions) that are user-written
functions in `clear::`.  Not seen: constructors and destructors (most
are compiler-made), lambdas and everything instantiated over one,
instantiations of `std::` templates, and templates no translation unit
instantiates.

The build must keep one function per section, emit every inline
function, and let the linker collect the unused ones (the `linkclosure`
configure preset):

    cmake --preset linkclosure && cmake --build build-linkclosure -j

Exit status: 0 clean, 1 findings (an unlisted function, or a stale
allowlist entry naming a function every binary links or none defines),
2 usage or I/O error.  `--lib-nm FILE --bin-nm FILE...` read saved
`nm -C` output instead of running nm (the self-test feeds it synthetic
listings).

Allowlist grammar (tools/link_closure_allowlist.txt), one entry a line:

    <demangled signature>  # <the non-production caller that keeps it>

Signatures are compared after normalize(): std::string and the default
allocators are spelled short, and ABI tags are dropped.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ALLOWLIST = os.path.join(HERE, "link_closure_allowlist.txt")

# `nm -C` line of a defined symbol: address, type letter, demangled name.
_NM_RE = re.compile(r"^[0-9A-Fa-f]+ ([A-Za-z]) (.+)$")
_LONG_STRING = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
                "std::allocator<char> >")
_ALLOCATOR = ", std::allocator<"


def normalize(name):
    """A demangled signature in the short spelling the allowlist uses."""
    name = name.replace(_LONG_STRING, "std::string")
    name = name.replace("[abi:cxx11]", "")
    # Drop default allocator arguments: `vector<T, std::allocator<T> >`
    # becomes `vector<T>`.
    while _ALLOCATOR in name:
        at = name.index(_ALLOCATOR)
        end = at + len(_ALLOCATOR) - 1  # the allocator's '<'
        depth = 1
        while depth:
            end += 1
            depth += {"<": 1, ">": -1}.get(name[end], 0)
        tail = name[end + 1:]
        if tail.startswith(" >"):
            tail = tail[1:]
        name = name[:at] + tail
    return name


def defined(nm_text, types):
    """Normalized names of the symbols of the given nm type letters."""
    out = set()
    for line in nm_text.splitlines():
        m = _NM_RE.match(line.strip())
        if m and m.group(1) in types:
            out.add(normalize(m.group(2)))
    return out


def qualified_name(sym):
    """The qualified name of a demangled function: the text before its
    parameter list, without the return type a function template's
    signature starts with."""
    depth, last_space, i = 0, -1, 0
    while i < len(sym):
        if sym.startswith("operator", i):
            # Skip the operator's own symbols: "()", "<<", "->", "[]", ...
            i += len("operator")
            if sym.startswith("()", i):
                i += 2
            while i < len(sym) and sym[i] in "<>=!+-*/%^&|~[],":
                i += 1
            continue
        c = sym[i]
        if c == "(" and depth == 0:
            break
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth -= 1
        elif c == " " and depth == 0:
            last_space = i
        i += 1
    name = sym[:i]
    if name.endswith(">") and last_space >= 0:
        name = name[last_space + 1:]
    return name


def checked_inline(sym):
    """Whether a `W` library symbol is a user-written function in clear::
    (not a constructor, destructor, lambda or std:: instantiation)."""
    if "{lambda" in sym:
        return False
    name = qualified_name(sym)
    if not name.startswith("clear::"):
        return False
    parts = [p.split("<")[0] for p in name.split("::")]
    return parts[-1] != parts[-2] and not parts[-1].startswith("~")


def unlinked(lib_nm, bin_nms):
    """Library functions that no binary defines after linking."""
    linked = set()
    for text in bin_nms:
        linked |= defined(text, "TtWw")
    lib = defined(lib_nm, "T")
    lib |= {w for w in defined(lib_nm, "W") if checked_inline(w)}
    return sorted(lib - linked)


def load_allowlist(path):
    """(entries: name -> line, errors: [(line, message)])."""
    entries, errors = {}, []
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition("#")
            name, reason = normalize(name.strip()), reason.strip()
            if not reason:
                errors.append((ln, "entry '%s' has no reason: say which "
                                   "non-production caller keeps it" % name))
            elif name in entries:
                errors.append((ln, "entry '%s' listed twice" % name))
            else:
                entries[name] = ln
    return entries, errors


def check(unlinked_names, entries, errors, allowlist_label):
    """Findings as `path:line: message` strings (empty when clean)."""
    findings = ["%s:%d: %s" % (allowlist_label, ln, msg)
                for ln, msg in errors]
    for name in unlinked_names:
        if name not in entries:
            findings.append(
                "%s: no production binary links it; delete it, move it "
                "into tests/, or list it in %s with its caller"
                % (name, allowlist_label))
    for name in sorted(set(entries) - set(unlinked_names)):
        findings.append(
            "%s:%d: stale entry '%s': a production binary links it, or the "
            "library no longer defines it; delete the entry"
            % (allowlist_label, entries[name], name))
    return findings


def run_nm(path):
    proc = subprocess.run(["nm", "-C", path], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True)
    if proc.returncode != 0:
        raise OSError("nm %s: %s" % (path, proc.stderr.strip()))
    return proc.stdout


def production_files(build_dir):
    """(library, binaries) of a linkclosure build; OSError if missing."""
    lib = os.path.join(build_dir, "libclear.a")
    bins = [os.path.join(build_dir, n) for n in ("clear", "paper_tables")]
    for path in [lib] + bins:
        if not os.path.isfile(path):
            raise OSError("%s missing (build the linkclosure preset)" % path)
    return lib, bins + sorted(glob.glob(os.path.join(build_dir, "example_*")))


def read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", help="build tree of the linkclosure preset")
    ap.add_argument("--allowlist", default=DEFAULT_ALLOWLIST)
    ap.add_argument("--lib-nm", help="saved `nm -C libclear.a` output")
    ap.add_argument("--bin-nm", nargs="*", default=[],
                    help="saved `nm -C <binary>` outputs")
    args = ap.parse_args(argv)
    try:
        if args.lib_nm:
            lib_nm = read(args.lib_nm)
            bin_nms = [read(p) for p in args.bin_nm]
        elif args.build_dir:
            lib, bins = production_files(args.build_dir)
            lib_nm = run_nm(lib)
            bin_nms = [run_nm(b) for b in bins]
        else:
            ap.error("give --build-dir or --lib-nm")
        entries, errors = load_allowlist(args.allowlist)
    except OSError as e:
        print("link_closure: %s" % e, file=sys.stderr)
        return 2
    names = unlinked(lib_nm, bin_nms)
    label = os.path.relpath(args.allowlist)
    findings = check(names, entries, errors, label)
    for f in findings:
        print(f)
    print("link_closure: %d library function(s) outside the production "
          "link closure, %d allowlisted, %d finding(s)"
          % (len(names), len(entries), len(findings)))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
