#!/usr/bin/env bash
# Config fence: a configuration value exists because some code sets it.
# Every `pub` field of every `*Config` struct under crates/, and every field
# of `TpccApp`, must have a writer somewhere in the workspace (crates, src,
# tests, examples, benchmark/src — tests count):
#
#   * an assignment to it (`x.field = …`, `x.field += …`, or a tuple
#     assignment `(x.field, …) = …`) outside its struct's constructors;
#   * a struct literal naming it outside its struct's constructors;
#   * or a constructor parameter that sets it (the field's initializer in
#     the constructor's literal mentions a parameter).
#
# A write inside a method of the struct, or inside any `with_*` method,
# counts only if that method is called somewhere.
#
# A field nobody sets is a constant: make it one, in the module that reads
# it. There is no exemption list. Matching is by name, not by type, so a
# same-named field of another struct counts as a writer: the fence can miss
# a dead field, never invent one.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import pathlib
import re
import sys

ROOTS = ["crates", "src", "tests", "examples", "benchmark/src"]
files = sorted(
    p for root in ROOTS for p in pathlib.Path(root).rglob("*.rs") if "target" not in p.parts
)


TOKEN = re.compile(
    r"//[^\n]*|/\*.*?\*/|\bb?r(#*)\".*?\"\1|b?\"(?:\\.|[^\"\\])*\"|b?'(?:\\.[^']*|[^\\'])'",
    re.S,
)


def strip(src):
    """Blanks comments, string and char literals (newlines kept), so braces
    and names inside them do not count."""
    return TOKEN.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), src)


def block(code, open_at):
    """The index just past the brace that closes the one at `open_at`."""
    depth = 0
    for j in range(open_at, len(code)):
        if code[j] == "{":
            depth += 1
        elif code[j] == "}":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(code)


def top_level_fields(body):
    """Field names a struct literal's body sets: `name: expr` and shorthand
    `name` entries at depth 0, with each one's initializer."""
    entries, depth, cur = [], 0, ""
    for c in body:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        if c == "," and depth == 0:
            entries.append(cur)
            cur = ""
        else:
            cur += c
    entries.append(cur)
    fields = []
    for e in entries:
        e = e.strip()
        if m := re.fullmatch(r"(\w+)\s*:(.*)", e, re.S):
            fields.append((m.group(1), m.group(2)))
        elif re.fullmatch(r"\w+", e):
            fields.append((e, e))
    return fields


codes = {p: strip(p.read_text()) for p in files}

# Every fn with a body: (file, name, params, takes_self, start, end).
fns = []
for p, code in codes.items():
    for m in re.finditer(r"\bfn\s+(\w+)\s*(?:<[^{;]*?>)?\s*\(", code):
        brace, semi = code.find("{", m.end()), code.find(";", m.end())
        if brace < 0 or 0 <= semi < brace:
            continue
        depth, j = 1, m.end()
        while depth and j < len(code):
            depth += {"(": 1, ")": -1}.get(code[j], 0)
            j += 1
        sig = code[m.end() : j - 1]
        params = re.findall(r"(?:^|,)\s*(?:mut\s+)?(\w+)\s*:", sig)
        takes_self = bool(re.match(r"\s*&?\s*(?:mut\s+)?self\b", sig))
        fns.append((p, m.group(1), params, takes_self, brace, block(code, brace)))


def enclosing_fn(p, at):
    inner = [f for f in fns if f[0] == p and f[4] <= at < f[5]]
    return max(inner, key=lambda f: f[4]) if inner else None


def called(name):
    """`name` is called somewhere outside a fn of the same name."""
    for p, code in codes.items():
        for m in re.finditer(r"\.\s*" + name + r"\s*(?:::<[^>]*>)?\(", code):
            f = enclosing_fn(p, m.start())
            if not (f and f[1] == name):
                return True
    return False


# The checked structs and their fields.
structs = []
for p in files:
    if p.parts[0] != "crates":
        continue
    code = codes[p]
    for m in re.finditer(r"\bpub struct (\w*Config|TpccApp)\s*\{", code):
        body = code[m.end() : block(code, m.end() - 1) - 1]
        visibility = r"(?:pub(?:\([^)]*\))?\s+)?" if m.group(1) == "TpccApp" else r"pub\s+"
        fields = re.findall(r"^\s*" + visibility + r"(\w+)\s*:", body, re.M)
        structs.append((p, m.group(1), fields))

# Every assignment: (file, offset, the field names it assigns).
assignments = []
for p, code in codes.items():
    for m in re.finditer(r"\.\s*(\w+)\s*(?:[-+*/%|&^]|<<|>>)?=(?![=>])", code):
        assignments.append((p, m.start(), {m.group(1)}))
    for m in re.finditer(r"\(([^()]*)\)\s*=(?![=>])", code):
        names = {t.group(1) for e in m.group(1).split(",") if (t := re.search(r"\.\s*(\w+)\s*$", e))}
        assignments.append((p, m.start(), names))

failures, checked = [], 0
for sp, name, fields in structs:
    # The struct's own fns: its constructors (no `self`) and its methods.
    own = []
    for p, code in codes.items():
        for m in re.finditer(r"\bimpl\b[^{;]*?\b" + name + r"\b\s*(?:<[^{]*>)?\s*\{", code):
            start, end = m.end() - 1, block(code, m.end() - 1)
            own += [f for f in fns if f[0] == p and start < f[4] < end]

    def counts(f):
        """Whether a write inside fn `f` is a writer: never inside a
        constructor; inside a method or a `with_*` only if it is called."""
        if f in own and not f[3]:
            return False
        return not (f and f[3] and (f in own or f[1].startswith("with_"))) or called(f[1])

    writers = set()
    literal = re.compile(r"\b(" + name + r"|Self)\s*\{")
    for p, code in codes.items():
        for m in literal.finditer(code):
            if re.search(r"(->|&|\bimpl|\bfor|\bstruct|\bmut)$", code[: m.start()].rstrip()):
                continue  # a type, not a literal
            f = enclosing_fn(p, m.start())
            if m.group(1) == "Self" and f not in own:
                continue
            body = code[m.end() : block(code, m.end() - 1) - 1]
            for field, init in top_level_fields(body):
                if f in own and not f[3]:
                    # A constructor's literal: written if a parameter sets it.
                    if any(re.search(r"\b" + q + r"\b", init) for q in f[2]):
                        writers.add(field)
                elif counts(f):
                    writers.add(field)
    for field in fields:
        checked += 1
        if field not in writers and not any(
            field in names and counts(enclosing_fn(p, at)) for p, at, names in assignments
        ):
            failures.append(f"{sp}: {name}::{field} has no writer")

for line in failures:
    print("config fence: " + line + " (make it a constant)", file=sys.stderr)
if failures:
    sys.exit(1)
print(f"config fence: ok ({checked} fields of {len(structs)} structs, each set by some code)")
EOF
