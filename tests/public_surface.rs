//! Tests are not callers: every `pub fn` in product code must be named — in
//! call or path position, so a field or an ordinary word of the same name
//! does not count — somewhere in product text other than its definition.
//! Product text is the part of `crates/*/src`, `src/`, `examples/` and
//! `benches/` above `mod tests`, comments excluded, plus all of
//! `benchmark/src`: no file under a `tests/` directory, no `mod tests` and
//! no file its `lib.rs` declares `#[cfg(test)] mod x;` vouches for anything
//! of ours, but the ledger's own tests do, because a product PR may not edit
//! them and they must keep compiling.
//!
//! Still a textual heuristic on purpose, and blind to receiver types: std's
//! `rules.len()` on a `Vec` vouches for a `RuleBook::len`. The rename probe
//! sees what this cannot — `scripts/surface-probe.py SCRATCH_DIR` renames
//! every `impl`-level `pub fn` in a scratch clone and lets the compiler say
//! which names anything but a test still needs. When either fires, delete
//! the function with the tests that exercised it, or give it a caller.
//! Fields have no textual rule: `scripts/surface-probe.py --fields
//! SCRATCH_DIR` makes every `pub` field of a `pub struct` `pub(crate)` and
//! lets rustc name the ones no product code reads. Tests are not readers.

use std::{fs, path::Path};

/// The only functions that stay without a product caller, each for a reason
/// that outlives this file: (path, name; empty = every function in the file).
const EXEMPT: [(&str, &str); 5] = [
    // `ActivityTimings` is the reference `crates/eval/tests/calibration.rs`
    // checks `step_timeout` against: the paper derives timer settings from
    // "historical timing profiles … at the 95% percentile".
    ("crates/mining/src/timing.rs", ""),
    // The never-stale, zero-latency read the cloud's own tests use as ground
    // truth for what the eventually consistent `describe_*` calls return.
    ("crates/cloud/src/cloud.rs", "admin_describe_instance"),
    // Ground truth again: the rule list the unindexed match-each-pattern
    // reference of `tests/annotator_golden.rs` walks, line by line over the
    // E1 log, to check the indexed `match_line` against.
    ("crates/log/src/matcher.rs", "rules"),
    // The read-only list the library-wide invariants walk — unique keys,
    // every tree testable, verdicts independent of test order, every mapped
    // recovery cause present in some tree; `select` cannot enumerate.
    ("crates/faulttree/src/tree.rs", "trees"),
    // The AND-gateway is part of the model input language; dropping it is a
    // feature decision, not a surface clean-up.
    ("crates/process/src/model.rs", "parallel_gateway"),
];

/// Every `.rs` file under `dir`, shims, `tests/` directories and test-only
/// modules excepted: (path from the root, its product text).
fn product_files(root: &Path, dir: &str, out: &mut Vec<(String, String)>) {
    let ours = !dir.starts_with("benchmark");
    let lib = fs::read_to_string(root.join(dir).join("lib.rs")).unwrap_or_default();
    for entry in fs::read_dir(root.join(dir)).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = format!("{dir}/{name}");
        if entry.path().is_dir() && path != "crates/shims" && name != "tests" {
            product_files(root, &path, out);
        } else if let Some(module) = name.strip_suffix(".rs") {
            if ours && lib.contains(&format!("#[cfg(test)]\nmod {module};")) {
                continue;
            }
            let text = fs::read_to_string(entry.path()).expect("readable source");
            let mut product = text.as_str();
            if ours {
                product = product.split("#[cfg(test)]\nmod tests").next().unwrap();
            }
            let code = product.lines().map(str::trim_start);
            let code: Vec<&str> = code.filter(|line| !line.starts_with("//")).collect();
            out.push((path, code.join("\n")));
        }
    }
}

fn ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `text` names `name` in call or path position: `.name(`,
/// `::name(`, bare `name(` outside its `fn` definition, or `::name` passed
/// as a value (followed by `)` or `,`).
fn calls(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        let (before, after) = (&text[..at], &text[at + name.len()..]);
        let called = after.starts_with('(') && !before.ends_with("fn ");
        let passed = before.ends_with("::") && after.starts_with([')', ',']);
        !before.ends_with(ident) && (called || passed)
    })
}

#[test]
fn every_public_function_has_a_caller_outside_its_own_tests() {
    let mut files = Vec::new();
    for dir in "crates src examples benches benchmark/src".split(' ') {
        product_files(Path::new(env!("CARGO_MANIFEST_DIR")), dir, &mut files);
    }
    let mut uncalled = Vec::new();
    for (path, text) in files.iter().filter(|(path, _)| path.starts_with("crates/")) {
        for rest in text.lines().filter_map(|line| line.strip_prefix("pub fn ")) {
            let name = rest.split(|c| !ident(c)).next().unwrap();
            let exempt = |(file, f): &(&str, &str)| file == path && (f.is_empty() || *f == name);
            if name.len() >= 4
                && !EXEMPT.iter().any(exempt)
                && !files.iter().any(|(_, text)| calls(text, name))
            {
                uncalled.push(format!("{path}: {name}"));
            }
        }
    }
    let list = uncalled.join("\n");
    assert!(uncalled.is_empty(), "only tests call:\n{list}");
}
