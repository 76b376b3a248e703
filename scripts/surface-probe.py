#!/usr/bin/env python3
"""Which public methods does nothing but test code call?

Usage: scripts/surface-probe.py SCRATCH_DIR        (run from the repo root)

Clones the working tree's HEAD plus its uncommitted changes into
SCRATCH_DIR, renames every `pub fn` inside an `impl` block of
`crates/*/src` (shims excepted, `mod tests` excepted) at its definition,
and builds everything that is not one of our tests: the workspace's libs,
bins and examples, the `obs_overhead` bench and all of `benchmark/` (its
tests too: product PRs may not edit them). Each E0599 the build
reports names a method that has a caller, so it gets its name back (by
method name and receiver type; by the names on the source line when the
error landed beside the rename). Repeats until the build is clean. What is still
renamed then has no caller outside tests — `tests/public_surface.rs`
cannot see receiver types, this can. Never run it on the repo itself.
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


def rename(root):
    """Renames every impl-level `pub fn`; returns {(type, name): (path, line)}."""
    renamed = {}
    test_only = {lib.parent / f"{name}.rs"
                 for lib in root.glob("crates/*/src/lib.rs")
                 for name in TEST_MOD.findall(lib.read_text())}
    for path in sorted(set(root.glob("crates/*/src/**/*.rs")) - test_only):
        lines = path.read_text().split("\n")
        owner, trait_impl = None, False
        for i, line in enumerate(lines):
            if line.startswith("#[cfg(test)]") and lines[i + 1].startswith("mod tests"):
                break
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


def restore(renamed, key):
    path, i = renamed.pop(key)
    lines = path.read_text().split("\n")
    lines[i] = lines[i].replace(key[1] + SUFFIX, key[1], 1)
    path.write_text("\n".join(lines))


def missing(root):
    """(name, identifiers of the receiver type, source line) of every E0599."""
    found, failed = set(), False
    for build in BUILDS:
        run = subprocess.run(build + ["--keep-going", "--message-format=json"],
                             cwd=root, capture_output=True, text=True)
        failed |= run.returncode != 0
        for out in run.stdout.splitlines():
            if not out.startswith("{"):
                continue
            msg = json.loads(out).get("message") or {}
            if (msg.get("code") or {}).get("code") != "E0599":
                continue
            # The primary span is the unresolved name itself; the receiver
            # is among the identifiers the message puts in back quotes.
            span = next(sp for sp in msg["spans"] if sp["is_primary"])
            text = span["text"][0]
            name = text["text"][text["highlight_start"] - 1:text["highlight_end"] - 1]
            quoted = " ".join(re.findall(r"`([^`]*)`", msg["message"]))
            found.add((name, frozenset(re.findall(r"\w+", quoted)), text["text"]))
    return found, failed


def main():
    root = pathlib.Path(sys.argv[1]).resolve()
    if root.exists():
        sys.exit(f"{root} exists; give a fresh scratch path")
    subprocess.run(["git", "clone", "-q", ".", str(root)], check=True)
    diff = subprocess.run(["git", "diff", "HEAD"], capture_output=True, check=True).stdout
    if diff:
        subprocess.run(["git", "apply"], input=diff, cwd=root, check=True)
    renamed = rename(root)
    print(f"{len(renamed)} impl-level pub fns renamed")
    for round_no in range(1, 100):
        found, failed = missing(root)
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
            restore(renamed, key)
        if not back:
            if failed:
                sys.exit("the build fails for another reason; see cargo check in " + str(root))
            break
    subprocess.run(["git", "checkout", "-q", "benchmark/Cargo.lock"], cwd=root)
    print(f"{len(renamed)} public methods nothing but tests call:")
    for (owner, name), (path, _) in sorted(renamed.items(), key=lambda kv: str(kv[1][0])):
        print(f"  {path.relative_to(root)}: {owner}::{name}")


if __name__ == "__main__":
    main()
