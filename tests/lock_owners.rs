//! The workspace's locks, as declared in the source, against what
//! ARCHITECTURE.md's lock-owner table ("Invariants and static analysis")
//! and `clippy.toml` say about them.
//!
//! `clippy.toml` disallows std's lock and guard types, so a lock compiles
//! only where its declaring field or static carries an
//! `#[expect(clippy::disallowed_types, reason = "…")]`. These tests keep
//! that ban in place and the table of lock owners equal to the locks the
//! code declares: a new lock, or one that moves, fails here until the table
//! says what runs under its guard and what it may be held across.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_file(path: &str) -> String {
    let at = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&at).unwrap_or_else(|e| panic!("{}: {e}", at.display()))
}

/// The `.rs` files under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

/// The module path of a source file: `crates/storage/src/striped.rs` is
/// `road_storage::striped`, a crate's `lib.rs` its crate root.
fn module_of(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap();
    let parts: Vec<&str> = rel.iter().map(|p| p.to_str().unwrap()).collect();
    let (krate, within) = match parts.as_slice() {
        ["crates", name, "src", rest @ ..] => (format!("road_{name}"), rest),
        ["src", rest @ ..] => ("road".to_owned(), rest),
        _ => panic!("{} is not in a crate's src", rel.display()),
    };
    let mut path = vec![krate];
    for (i, part) in within.iter().enumerate() {
        let part = if i + 1 == within.len() { part.trim_end_matches(".rs") } else { part };
        if !matches!(part, "lib" | "mod" | "main") {
            path.push(part.to_owned());
        }
    }
    path.join("::")
}

/// A lock declaration: the module, the declaring field's or static's
/// name, and the reason its `#[expect]` gives.
#[derive(Debug)]
struct Declared {
    module: String,
    item: String,
    reason: String,
}

/// The numbered lines of `text` outside its `#[cfg(test)]` items: an
/// item's extent is its line and, when that opens a brace, every line up to
/// the one that balances it (the workspace writes no unbalanced brace in a
/// char or string literal).
fn without_test_items(text: &str) -> Vec<(usize, &str)> {
    let mut kept = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((n, line)) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            kept.push((n, line));
            continue;
        }
        let mut depth = 0i64;
        let mut in_attribute = false;
        for (_, line) in lines.by_ref() {
            let code = line.trim();
            if depth == 0 && (in_attribute || code.starts_with("#[")) {
                in_attribute = !code.ends_with(']');
                continue;
            }
            if code.starts_with("//") {
                continue;
            }
            depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if depth <= 0 {
                break;
            }
        }
    }
    kept
}

/// Every lock the workspace's library and binary code declares: each file
/// read without its `#[cfg(test)]` items (a test module carries its own
/// `#[expect]`). A line of code left that names a `Mutex` or `RwLock` type
/// must be the item right after an
/// `#[expect(clippy::disallowed_types, reason = "…")]`.
fn declared_locks() -> Vec<Declared> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = rust_files(&root.join("src"));
    let mut crates: Vec<PathBuf> =
        std::fs::read_dir(root.join("crates")).unwrap().map(|e| e.unwrap().path()).collect();
    crates.sort();
    for krate in crates {
        files.extend(rust_files(&krate.join("src")));
    }
    let mut locks = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let lines = without_test_items(&text);
        let mut attribute: Option<String> = None;
        let mut reason: Option<String> = None;
        for (n, line) in lines {
            let code = line.trim();
            if code.starts_with("//") {
                continue;
            }
            if let Some(open) = attribute.as_mut() {
                open.push_str(code);
                if code == ")]" {
                    let text = attribute.take().unwrap();
                    reason = text
                        .contains("clippy::disallowed_types")
                        .then(|| text.split("reason = \"").nth(1).unwrap_or("").to_owned())
                        .map(|r| r.split('"').next().unwrap().to_owned());
                }
                continue;
            }
            if code == "#[expect(" {
                attribute = Some(String::new());
                continue;
            }
            if code.starts_with("#[") {
                continue;
            }
            let names_a_lock = ["Mutex<", "RwLock<"].iter().any(|t| code.contains(t));
            let expected = reason.take();
            if names_a_lock {
                let why = expected.unwrap_or_else(|| {
                    panic!(
                        "{}:{}: a lock type without a reasoned #[expect] on its item",
                        file.display(),
                        n + 1
                    )
                });
                let name = code
                    .trim_start_matches("pub(crate) ")
                    .trim_start_matches("pub ")
                    .trim_start_matches("static ")
                    .split(':')
                    .next()
                    .unwrap()
                    .trim()
                    .to_owned();
                locks.push(Declared { module: module_of(root, &file), item: name, reason: why });
            }
        }
    }
    locks
}

/// The lock-owner table's rows: the module and the declaring item's last
/// path segment (`StripedBufferPool::stripes` is `stripes`).
fn table_owners() -> BTreeSet<(String, String)> {
    let doc = repo_file("ARCHITECTURE.md");
    let rows = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Module | Class (declaring item) |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    rows.map(|row| {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let ticked = |cell: &str| -> Vec<String> {
            cell.split('`').skip(1).step_by(2).map(str::to_owned).collect()
        };
        let module = ticked(cells[1]).remove(0);
        let class = ticked(cells[2]);
        let item = class.get(1).unwrap_or(&class[0]).rsplit("::").next().unwrap().to_owned();
        (module, item)
    })
    .collect()
}

#[test]
fn clippy_toml_disallows_std_locks_and_their_guards() {
    let clippy = repo_file("clippy.toml");
    let types = clippy.split("disallowed-types = [").nth(1).unwrap().split("\n]").next().unwrap();
    for banned in [
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::MutexGuard",
        "std::sync::RwLockReadGuard",
        "std::sync::RwLockWriteGuard",
    ] {
        assert!(types.contains(&format!("path = \"{banned}\"")), "{banned} is not disallowed");
    }
}

/// The locks the code declares are the table's rows, no more and no fewer.
#[test]
fn the_lock_owner_table_lists_every_declared_lock() {
    let declared: BTreeSet<(String, String)> =
        declared_locks().into_iter().map(|d| (d.module, d.item)).collect();
    let table = table_owners();
    assert_eq!(table.len(), 6, "ARCHITECTURE.md's lock-owner table: {table:?}");
    assert_eq!(declared, table, "declared in code (left) against ARCHITECTURE.md's table (right)");
}

/// Each declaration gives its reason, and the table names one guard held
/// across pool I/O: the page-in lock's, whose reason says why that is
/// safe.
#[test]
fn every_lock_declaration_gives_its_reason_and_one_guard_spans_pool_io() {
    for lock in declared_locks() {
        assert!(lock.reason.split_whitespace().count() >= 8, "{lock:?}: no reason given");
    }
    let doc = repo_file("ARCHITECTURE.md");
    let across_io: Vec<String> = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Module | Class (declaring item) |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .filter(|row| row.split('|').nth(4).is_some_and(|held| held.contains("pool I/O")))
        .map(|row| row.split('`').nth(3).unwrap().to_owned())
        .collect();
    assert_eq!(across_io, ["page-in"], "the guards held across pool I/O");
}

/// A lock-order deadlock fails CI in bounded time: the Test and Stress
/// steps carry a timeout, and Clippy runs over every target with warnings
/// denied, which is what turns the type ban into a failure.
#[test]
fn ci_bounds_the_test_steps_and_denies_clippy_warnings() {
    let ci = repo_file(".github/workflows/ci.yml");
    let step = |name: &str| -> String {
        let from = ci.find(&format!("- name: {name}")).unwrap_or_else(|| panic!("no {name} step"));
        let rest = &ci[from + 2..];
        rest[..rest.find("- name:").unwrap_or(rest.len())].to_owned()
    };
    for name in ["Test", "Stress tests"] {
        assert!(step(name).contains("timeout-minutes:"), "the {name} step has no timeout");
    }
    assert!(step("Clippy").contains("cargo clippy --workspace --all-targets -- -D warnings"));
}
