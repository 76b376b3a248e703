//! A module's own tests are not callers: every `pub fn` in product code must
//! be named outside its definition, its comments, its file's `mod tests` and
//! its own crate's `tests/` — in call or path position, so a field or an
//! ordinary word of the same name is not a caller. Still a textual heuristic
//! on purpose. When it fires, delete the function or give it a caller.

use std::{fs, path::Path};

/// Every `.rs` file under `dir`, shims excepted: (path from the root, text).
fn rust_files(root: &Path, dir: &str, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(root.join(dir)).into_iter().flatten().flatten() {
        let path = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() && path != "crates/shims" {
            rust_files(root, &path, out);
        } else if path.ends_with(".rs") {
            let text = fs::read_to_string(entry.path()).expect("readable source");
            out.push((path, text));
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
    for dir in "crates src examples benches tests benchmark/src".split(' ') {
        rust_files(Path::new(env!("CARGO_MANIFEST_DIR")), dir, &mut files);
    }
    let mut uncalled = Vec::new();
    for (path, text) in &files {
        let parts: Vec<&str> = path.split('/').collect();
        if parts[0] != "crates" || parts.get(2) != Some(&"src") {
            continue;
        }
        let own_tests = format!("crates/{}/tests/", parts[1]);
        let product = text.split("#[cfg(test)]\nmod tests").next().unwrap();
        let code = product.lines().map(str::trim_start);
        let code: Vec<&str> = code.filter(|line| !line.starts_with("//")).collect();
        for rest in code.iter().filter_map(|line| line.strip_prefix("pub fn ")) {
            let name = rest.split(|c| !ident(c)).next().unwrap();
            let elsewhere = |(other, text): &(String, String)| {
                other != path && !other.starts_with(&own_tests) && calls(text, name)
            };
            if name.len() >= 4
                && !code.iter().any(|line| calls(line, name))
                && !files.iter().any(elsewhere)
            {
                uncalled.push(format!("{path}: {name}"));
            }
        }
    }
    let list = uncalled.join("\n");
    assert!(uncalled.is_empty(), "only their own tests call:\n{list}");
}
