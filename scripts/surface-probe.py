#!/usr/bin/env python3
"""Which public methods, and which public struct fields, does nothing but
test code use?

Usage: scripts/surface-probe.py SCRATCH_DIR            (run from the repo root)
       scripts/surface-probe.py --fields SCRATCH_DIR

Both modes clone the working tree's HEAD plus its uncommitted changes into
SCRATCH_DIR and build everything that is not one of our tests: the
workspace's libs, bins and examples, the `obs_overhead` bench and all of
`benchmark/` (its tests too: product PRs may not edit them). Never run it
on the repo itself.

Methods: renames every `pub fn` inside an `impl` block of `crates/*/src`
(shims excepted, `mod tests` excepted) at its definition. Each E0599 the
build reports names a method that has a caller, so it gets its name back
(by method name and receiver type; by the names on the source line when
the error landed beside the rename). Repeats until the build is clean.
What is still renamed then has no caller outside tests —
`tests/public_surface.rs` cannot see receiver types, this can.

Fields: makes every `pub` field of every `pub struct` in `crates/*/src`
`pub(crate)`. Each "field … is private" error names a field another
crate's product code reads or builds, so it gets `pub` back. Repeats until
the build is clean, then prints rustc's "never read" warnings: fields no
product code reads. Blind spots: a derived `PartialEq`/`Eq`/`Hash`/`Ord`
counts as a read (derived `Debug` and `Clone` do not), so does a write
through the field after construction (`x.f = v`, `x.f.push(v)`), and enum
variant fields are not struct fields, so neither mode sees them.
"""
import json
import pathlib
import re
import subprocess
import sys

SUFFIX = "__probe"
BUILDS = [
    ["cargo", "check", "--offline", "--workspace", "--lib", "--bins", "--examples"],
    ["cargo", "check", "--offline", "-p", "pod-diagnosis", "--bench", "obs_overhead"],
    # The ledger whole, tests included: a product PR may not edit them.
    ["cargo", "check", "--offline", "--manifest-path", "benchmark/Cargo.toml", "--all-targets"],
]
IMPL = re.compile(r"^impl(?:<[^>]*>)?\s+(?:[\w:]+(?:<[^>]*>)?\s+for\s+)?(\w+)")
PUB_FN = re.compile(r"^(\s+)pub fn (\w+)")
TEST_MOD = re.compile(r"#\[cfg\(test\)\]\nmod (\w+);")
PUB_STRUCT = re.compile(r"^(\s*)pub struct (\w+)[^;(]*\{$")
PUB_FIELD = re.compile(r"^(\s+)pub (\w+):")
PRIVATE = re.compile(r"fields? ((?:`\w+`(?:, | and )?)+) of struct `(?:\w+::)*(\w+)` (?:is|are) private")
NEVER_READ = re.compile(r"fields? .* never read")


def sources(root):
    """(path, lines above `mod tests`) of every product source file."""
    test_only = {lib.parent / f"{name}.rs"
                 for lib in root.glob("crates/*/src/lib.rs")
                 for name in TEST_MOD.findall(lib.read_text())}
    for path in sorted(set(root.glob("crates/*/src/**/*.rs")) - test_only):
        lines = path.read_text().split("\n")
        end = next((i for i, line in enumerate(lines)
                    if line.startswith("#[cfg(test)]") and lines[i + 1].startswith("mod tests")),
                   len(lines))
        yield path, lines, end


def rename_methods(root):
    """Renames every impl-level `pub fn`; returns {(type, name): (path, line)}."""
    renamed = {}
    for path, lines, end in sources(root):
        owner, trait_impl = None, False
        for i, line in enumerate(lines[:end]):
            if m := IMPL.match(line):
                owner, trait_impl = m.group(1), " for " in line.split("{")[0]
            elif line.startswith("}"):
                owner = None
            if owner and not trait_impl and (m := PUB_FN.match(line)):
                name = m.group(2)
                lines[i] = line.replace(f"pub fn {name}", f"pub fn {name}{SUFFIX}", 1)
                renamed[(owner, name)] = (path, i)
        path.write_text("\n".join(lines))
    return renamed


def hide_fields(root):
    """Makes every named `pub` field of a `pub struct` `pub(crate)`;
    returns {(struct, field): (path, line)}."""
    hidden = {}
    for path, lines, end in sources(root):
        owner, indent = None, None
        for i, line in enumerate(lines[:end]):
            if m := PUB_STRUCT.match(line):
                owner, indent = m.group(2), m.group(1)
            elif owner and line == indent + "}":
                owner = None
            elif owner and (m := PUB_FIELD.match(line)) and m.group(1) == indent + "    ":
                lines[i] = line.replace("pub ", "pub(crate) ", 1)
                hidden[(owner, m.group(2))] = (path, i)
        path.write_text("\n".join(lines))
    return hidden


def diagnostics(root):
    """Every compiler message of every build, and whether one failed."""
    found, failed = [], False
    for build in BUILDS:
        run = subprocess.run(build + ["--keep-going", "--message-format=json"],
                             cwd=root, capture_output=True, text=True)
        failed |= run.returncode != 0
        for out in run.stdout.splitlines():
            if out.startswith("{") and (msg := json.loads(out).get("message")):
                found.append(msg)
    return found, failed


def unresolved_methods(root):
    """(name, identifiers of the receiver type, source line) of every E0599."""
    found, failed = diagnostics(root)
    missing = set()
    for msg in found:
        if (msg.get("code") or {}).get("code") != "E0599":
            continue
        # The primary span is the unresolved name itself; the receiver
        # is among the identifiers the message puts in back quotes.
        span = next(sp for sp in msg["spans"] if sp["is_primary"])
        text = span["text"][0]
        name = text["text"][text["highlight_start"] - 1:text["highlight_end"] - 1]
        quoted = " ".join(re.findall(r"`([^`]*)`", msg["message"]))
        missing.add((name, frozenset(re.findall(r"\w+", quoted)), text["text"]))
    return missing, failed


def restore(renamed, key, old, new):
    path, i = renamed.pop(key)
    lines = path.read_text().split("\n")
    lines[i] = lines[i].replace(old, new, 1)
    path.write_text("\n".join(lines))


def probe_methods(root):
    renamed = rename_methods(root)
    print(f"{len(renamed)} impl-level pub fns renamed")
    for round_no in range(1, 100):
        found, failed = unresolved_methods(root)
        back = set()
        for name, types, line in found:
            hit = {k for k in renamed if k[1] == name and k[0] in types}
            if not hit:
                # A renamed inherent method can unmask a trait method of the
                # same name, and the error lands further along the line.
                words = set(re.findall(r"\w+", line))
                named = {k for k in renamed if k[1] in words}
                hit = {k for k in named if k[0] in words} or named
            back |= hit
        print(f"round {round_no}: {len(found)} unresolved, {len(back)} restored")
        for key in back:
            restore(renamed, key, key[1] + SUFFIX, key[1])
        if not back:
            if failed:
                sys.exit("the build fails for another reason; see cargo check in " + str(root))
            break
    print(f"{len(renamed)} public methods nothing but tests call:")
    for (owner, name), (path, _) in sorted(renamed.items(), key=lambda kv: str(kv[1][0])):
        print(f"  {path.relative_to(root)}: {owner}::{name}")


def probe_fields(root):
    hidden = hide_fields(root)
    print(f"{len(hidden)} pub struct fields made pub(crate)")
    for round_no in range(1, 100):
        found, failed = diagnostics(root)
        private = {(m.group(2), name) for msg in found if msg["level"] == "error"
                   for m in PRIVATE.finditer(msg["message"])
                   for name in re.findall(r"`(\w+)`", m.group(1))}
        back = private & hidden.keys()
        print(f"round {round_no}: {len(private)} private fields used, {len(back)} restored")
        for key in back:
            restore(hidden, key, "pub(crate) ", "pub ")
        if not back:
            if failed:
                sys.exit("the build fails for another reason; see cargo check in " + str(root))
            break
    by_line = {(path, i + 1): key for key, (path, i) in hidden.items()}
    unread = set()
    for msg in found:
        if msg["level"] == "warning" and NEVER_READ.search(msg["message"]):
            for span in msg["spans"]:
                key = by_line.get((root / span["file_name"], span["line_start"]))
                if span["is_primary"] and key:
                    unread.add(key)
    print(f"{len(unread)} public struct fields no product code reads:")
    for owner, name in sorted(unread, key=lambda k: (str(hidden[k][0]), hidden[k][1])):
        path, i = hidden[(owner, name)]
        print(f"  {path.relative_to(root)}:{i + 1}: {owner}::{name}")


def main():
    args = sys.argv[1:]
    fields = args[:1] == ["--fields"]
    if len(args) != 1 + fields:
        sys.exit(__doc__)
    root = pathlib.Path(args[-1]).resolve()
    if root.exists():
        sys.exit(f"{root} exists; give a fresh scratch path")
    subprocess.run(["git", "clone", "-q", ".", str(root)], check=True)
    diff = subprocess.run(["git", "diff", "HEAD"], capture_output=True, check=True).stdout
    if diff:
        subprocess.run(["git", "apply"], input=diff, cwd=root, check=True)
    (probe_fields if fields else probe_methods)(root)
    subprocess.run(["git", "checkout", "-q", "benchmark/Cargo.lock"], cwd=root)


if __name__ == "__main__":
    main()
