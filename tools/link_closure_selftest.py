#!/usr/bin/env python3
"""Self-test of tools/link_closure.py (ctest: link_closure_selftest).

Feeds the check synthetic `nm -C` listings, so it needs no build:
  1. normalize() spells std::string, default allocators and ABI tags the
     way allowlist entries are written;
  2. only the library's global text symbols count, and a function any
     binary defines is linked;
  3. an unlisted function, a stale entry, an entry without a reason and
     a repeated entry are findings; an allowlisted function is not;
  4. inline (`W`) library functions count like `T` ones: an unlinked one
     is a finding, an allowlisted one a binary links is stale, and
     constructors, destructors, lambdas and std:: instantiations are
     ignored;
  5. the command line reads saved listings and exits 1 on findings, 0
     when clean;
  6. the real allowlist parses, every entry with a reason.
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import link_closure as lc  # noqa: E402

LONG = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
        "std::allocator<char> >")

LIB_NM = """
a.o:
0000000000000000 T clear::kept(int)
0000000000000010 T clear::orphan({s} const&)
0000000000000020 W clear::inline_in_header()
0000000000000030 t clear::(anonymous namespace)::file_local()
                 U clear::elsewhere()

b.o:
0000000000000000 T clear::merge(std::vector<clear::Part, std::allocator<clear::Part> > const&)
0000000000000010 T clear::name[abi:cxx11](int)
""".format(s=LONG)

BIN_NM = """
0000000000401000 T main
0000000000401100 T clear::kept(int)
0000000000401200 T clear::name[abi:cxx11](int)
0000000000401300 W clear::inline_in_header()
"""


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_normalize():
    expect(lc.normalize("f(%s const&)" % LONG) == "f(std::string const&)",
           "std::string spelling")
    expect(lc.normalize("g[abi:cxx11](int)") == "g(int)", "ABI tag")
    nested = ("h(std::vector<std::vector<int, std::allocator<int> >, "
              "std::allocator<std::vector<int, std::allocator<int> > > > "
              "const&)")
    got = lc.normalize(nested)
    expect(got == "h(std::vector<std::vector<int>> const&)",
           "nested allocators: got %r" % got)
    print("ok: normalize")


def check_unlinked():
    got = lc.unlinked(LIB_NM, [BIN_NM])
    want = ["clear::merge(std::vector<clear::Part> const&)",
            "clear::orphan(std::string const&)"]
    expect(got == want, "unlinked: got %r, want %r" % (got, want))
    expect(lc.unlinked(LIB_NM, [BIN_NM, "0 T clear::orphan(%s const&)"
                                % LONG]) == [want[0]],
           "a function any one binary defines is linked")
    print("ok: unlinked (%d of 4 library functions)" % len(got))


# Inline functions: what -fkeep-inline-functions emits into the library.
INLINE_LIB_NM = """
0000000000000000 W clear::Widget::size() const
0000000000000010 W clear::Widget::unused() const
0000000000000020 W clear::Widget::operator bool() const
0000000000000030 W clear::Widget::Widget(clear::Widget&&)
0000000000000040 W clear::Holder<int>::Holder()
0000000000000050 W clear::Widget::~Widget()
0000000000000060 W clear::run()::{lambda(int)#1}::operator()(int) const
0000000000000070 W std::vector<clear::Widget, std::allocator<clear::Widget> >::size() const
0000000000000080 W clear::Widget const& std::forward<clear::Widget const&>(clear::Widget const&)
0000000000000090 W bool clear::util::as<bool>(int)
00000000000000a0 W int clear::util::as<int>(int)
"""

INLINE_BIN_NM = """
0000000000401000 W clear::Widget::size() const
0000000000401100 W int clear::util::as<int>(int)
"""


def check_inline(tmp):
    names = lc.unlinked(INLINE_LIB_NM, [INLINE_BIN_NM])
    want = ["bool clear::util::as<bool>(int)",
            "clear::Widget::operator bool() const",
            "clear::Widget::unused() const"]
    expect(names == want, "inline: got %r, want %r" % (names, want))
    for sym, name in (("bool clear::util::as<bool>(int)",
                       "clear::util::as<bool>"),
                      ("clear::X::operator()(int) const",
                       "clear::X::operator()"),
                      ("clear::X::operator<(clear::X const&) const",
                       "clear::X::operator<"),
                      ("clear::W const& std::forward<clear::W const&>(int)",
                       "std::forward<clear::W const&>")):
        got = lc.qualified_name(sym)
        expect(got == name, "qualified_name(%r) = %r" % (sym, got))

    # An allowlisted inline function a binary links is stale, like a
    # `T` one; the unlinked ones are findings until listed.
    allowlist = write(tmp, "inline.txt",
                      "clear::Widget::unused() const  # the widget test\n"
                      "clear::Widget::size() const  # linked, so stale\n")
    entries, errors = lc.load_allowlist(allowlist)
    findings = lc.check(names, entries, errors, "al")
    for needle in ("bool clear::util::as<bool>(int): no production binary",
                   "clear::Widget::operator bool() const: no production",
                   "al:2: stale entry 'clear::Widget::size() const'"):
        expect(any(f.startswith(needle) for f in findings),
               "missing finding %r in %r" % (needle, findings))
    expect(len(findings) == 3, "want 3 inline findings, got %r" % findings)
    print("ok: inline functions (unlinked, stale, ignored kinds)")


def write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def check_findings(tmp):
    names = lc.unlinked(LIB_NM, [BIN_NM])
    clean = write(tmp, "clean.txt",
                  "# comment\n"
                  "clear::merge(std::vector<clear::Part> const&)  # bench\n"
                  "clear::orphan(%s const&)  # the oracle test\n" % LONG)
    entries, errors = lc.load_allowlist(clean)
    expect(lc.check(names, entries, errors, "al") == [], "clean allowlist")

    bad = write(tmp, "bad.txt",
                "clear::orphan(std::string const&)\n"
                "clear::kept(int)  # linked, so stale\n"
                "clear::gone()  # defined nowhere, so stale\n"
                "clear::kept(int)  # again\n")
    entries, errors = lc.load_allowlist(bad)
    findings = lc.check(names, entries, errors, "al")
    for needle in ("al:1: entry 'clear::orphan(std::string const&)' has no "
                   "reason",
                   "al:4: entry 'clear::kept(int)' listed twice",
                   "clear::merge(std::vector<clear::Part> const&): no "
                   "production binary links it",
                   "clear::orphan(std::string const&): no production",
                   "al:2: stale entry 'clear::kept(int)'",
                   "al:3: stale entry 'clear::gone()'"):
        expect(any(f.startswith(needle) for f in findings),
               "missing finding %r in %r" % (needle, findings))
    expect(len(findings) == 6, "want 6 findings, got %r" % findings)
    print("ok: findings (unlisted, stale, no reason, repeated)")
    return clean, bad


def check_cli(tmp, clean, bad):
    lib = write(tmp, "lib.nm", LIB_NM)
    binary = write(tmp, "bin.nm", BIN_NM)
    for allowlist, want in ((clean, 0), (bad, 1)):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "link_closure.py"),
             "--lib-nm", lib, "--bin-nm", binary, "--allowlist", allowlist],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            universal_newlines=True)
        expect(proc.returncode == want,
               "exit %d, want %d:\n%s%s" % (proc.returncode, want,
                                            proc.stdout, proc.stderr))
    print("ok: command line exits 0 clean, 1 on findings")


def check_real_allowlist():
    entries, errors = lc.load_allowlist(lc.DEFAULT_ALLOWLIST)
    expect(not errors, "real allowlist: %r" % errors)
    expect(entries, "real allowlist is empty")
    print("ok: real allowlist parses (%d entries, each with a reason)"
          % len(entries))


def main():
    check_normalize()
    check_unlinked()
    with tempfile.TemporaryDirectory() as tmp:
        clean, bad = check_findings(tmp)
        check_inline(tmp)
        check_cli(tmp, clean, bad)
    check_real_allowlist()
    print("link_closure selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
