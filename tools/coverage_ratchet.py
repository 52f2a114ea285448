#!/usr/bin/env python3
"""Lists the src/ functions no run reached, and holds that list to a baseline.

    coverage_ratchet.py BUILD_DIR [BASELINE]

BUILD_DIR is a tree built with --coverage whose *.gcda files hold the runs
that count (CI: the golden_* ctests alone). The tool runs
`gcov --json-format --stdout` (GCC >= 10) over every *.gcno under BUILD_DIR,
keeps the functions whose source file lies under this repo's src/, and
prints, sorted, the key of every function that no instance ran.

A key is `<repo-relative file> <name>`. The name is gcov's demangled name
without its return type, its [abi:...] tags, its template-argument lists,
its parameter lists and its const/volatile/&/&& qualifiers; lambda ordinals
stay (`F::{lambda#2}::operator()`). A key counts as reached when any
instance of it ran: every template instantiation, every constructor or
destructor variant and every overload of one name merge into one key, so
an instantiation only a test makes (ScheduleOn over a test lambda) adds no
key of its own, and overloads are reached or unreached together. Line
numbers are not part of the key, so moving code leaves the list alone.

gcov sees only functions some translation unit compiled: an inline function
nothing calls has no instance, so the list is a floor.

With BASELINE, the tool compares instead of listing. Blank lines and lines
starting with '#' in the baseline are ignored. It exits 1 when a key is
unreached but not in the baseline (new), or in the baseline but no longer
unreached (stale: a run now reaches it, or the function is gone); each is
listed. The baseline can therefore only shrink. Regenerate it by running
the tool without one.
"""
import json
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# Operator names that hold a bracket the stripper must not treat as a list.
_OPERATOR_TOKENS = ("<=>", "<<=", ">>=", "->*", "<<", ">>", "<=", ">=", "->",
                    "()", "<", ">")
_QUALIFIERS = ("const", "volatile", "&", "&&")
# Its parentheses are not a parameter list.
_ANON = "(anonymous namespace)"
_ANON_MARK = "\0anon\0"


def _after_operator(s, i):
    """True when s[:i] ends with the keyword `operator`."""
    return s.endswith("operator", 0, i) and (
        i == 8 or not (s[i - 9].isalnum() or s[i - 9] == "_"))


def _strip_lists(s):
    """Drops every <...> and (...) list, keeping operator names whole."""
    out = []
    depth = 0
    i = 0
    while i < len(s):
        if _after_operator(s, i):
            tok = next((t for t in _OPERATOR_TOKENS if s.startswith(t, i)), None)
            if tok is not None:
                if depth == 0:
                    out.append(tok)
                i += len(tok)
                continue
        c = s[i]
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out)


def function_key_name(demangled):
    """The name part of a function's key (see the module docstring)."""
    s = demangled.replace(_ANON, _ANON_MARK)
    s = _strip_lists(re.sub(r"\[abi:[^\]]*\]", "", s))
    parts = []
    for t in s.split(" "):
        # "const" can also trail an enclosing function: "F const::{lambda#1}".
        t = re.sub(r"^(const|volatile)(?=::)", "", t)
        if not t or t in _QUALIFIERS:
            continue
        if parts and t.startswith("::"):
            parts[-1] += t
        else:
            parts.append(t)
    name = parts[-1]
    # A conversion operator's type follows "operator" after a space.
    for k, t in enumerate(parts):
        if t == "operator" or t.endswith("::operator"):
            name = " ".join(parts[k:])
            break
    return name.replace(_ANON_MARK, _ANON)


def collect(docs):
    """Maps each src/ key to whether any instance ran, over gcov documents."""
    reached = {}
    for doc in docs:
        cwd = doc.get("current_working_directory", "")
        for f in doc.get("files", []):
            path = os.path.abspath(os.path.join(cwd, f["file"]))
            if os.path.commonpath([path, SRC]) != SRC:
                continue
            rel = os.path.relpath(path, REPO).replace(os.sep, "/")
            for fn in f.get("functions", []):
                key = rel + " " + function_key_name(fn["demangled_name"])
                reached[key] = reached.get(key, False) or fn["execution_count"] > 0
    return reached


def run_gcov(build_dir):
    """Yields one parsed gcov JSON document per *.gcno under |build_dir|."""
    gcnos = []
    for root, _, files in os.walk(os.path.abspath(build_dir)):
        gcnos.extend(os.path.join(root, f) for f in files if f.endswith(".gcno"))
    if not gcnos:
        raise SystemExit(f"{build_dir}: no *.gcno files (build with --coverage)")
    gcnos.sort()
    batch = 64
    for k in range(0, len(gcnos), batch):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + gcnos[k:k + batch],
            check=True, capture_output=True, text=True, cwd=build_dir).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def read_baseline(path):
    with open(path) as fh:
        return {line.strip() for line in fh
                if line.strip() and not line.lstrip().startswith("#")}


def report(docs, baseline=None):
    """Returns (exit status, output lines) for gcov documents |docs|.

    Without |baseline| the lines are the sorted unreached keys. With it, they
    name every new and every stale key, and the status is 1 if there is any.
    """
    unreached = {k for k, ran in collect(docs).items() if not ran}
    if baseline is None:
        return 0, sorted(unreached)
    lines = []
    new = sorted(unreached - baseline)
    stale = sorted(baseline - unreached)
    if new:
        lines.append(f"{len(new)} src/ function(s) no golden run reaches "
                     "(cover them with a run, or delete them):")
        lines.extend(f"  new: {k}" for k in new)
    if stale:
        lines.append(f"{len(stale)} baseline key(s) now reached or gone:")
        lines.extend(f"  stale: {k}  (delete this line)" for k in stale)
    if lines:
        return 1, lines
    return 0, [f"coverage ratchet: {len(unreached)} unreached src/ functions, "
               "all in the baseline"]


def main(argv):
    if len(argv) not in (2, 3):
        raise SystemExit(__doc__)
    baseline = read_baseline(argv[2]) if len(argv) == 3 else None
    status, lines = report(run_gcov(argv[1]), baseline)
    for line in lines:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
