//! roadlint — project-specific static analysis for the ROAD workspace.
//!
//! A dependency-free, token-level pass proving the two invariants of the
//! serving path that rustc, clippy, the types and the tests do not (see
//! ARCHITECTURE.md §"Invariants and static analysis"):
//!
//! 2. **lock-order** — the acquired-while-held graph over the named lock
//!    classes is a DAG, with cross-crate footprints computed on the
//!    workspace call graph;
//! 6. **guard-io** — no guard other than the buffer pool's own stripe
//!    is held across `PageStore` IO ([`lockgraph`]).
//!
//! The other rules moved, and the numbers stay theirs: rule 1,
//! panic-freedom, is each serving-path module's
//! `#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::panic,
//! …, clippy::disallowed_macros))]`; rule 3, allocation-free hot paths, is
//! the counted allocations of `crates/core/tests/warm_alloc.rs`; rule 4,
//! justified atomic orderings, is `road_storage::striped`'s one counter
//! type, with `clippy.toml` disallowing std's atomics elsewhere; rule 5,
//! decoded counts bounded, is `road_storage::decode`'s cursor, with
//! `clippy.toml` disallowing `from_le_bytes` elsewhere; rules 7 and 8, hash
//! order into bytes and float sums, are the types of `road_network::hash`
//! (no unordered iteration) with `clippy.toml` disallowing std's hash
//! containers and the named `hash_order` walk; rule 9, scheduling order, is
//! `road_network::fanout::fan_out`, with `clippy.toml` disallowing
//! `std::thread::scope`. A discarded `Result` fails rustc's
//! `unused_must_use` and clippy's `let_underscore_must_use` /
//! `unused_result_ok`.
//!
//! Both rules resolve calls across files and crates via [`callgraph`].
//! The pass walks every `.rs` file of the workspace (skipping `target`,
//! `vendor`, test trees, fixtures, dot-directories and anything listed in
//! a root `roadlint.toml` `skip = […]` entry) and exits non-zero on any
//! finding, which makes it usable as a hard CI gate; `--json` emits a
//! machine-readable report for CI artifacts.

pub mod callgraph;
pub mod json;
pub mod lexer;
pub mod lockgraph;
pub mod markers;
pub mod syntax;

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation (or marker-hygiene problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line; 0 for whole-file findings.
    pub line: u32,
    /// Stable rule identifier (`lock-order`, `guard-io`, `marker`).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// One parsed file, shared by every pass: lexed tokens, markers, function
/// spans and unit-test ranges.
#[derive(Debug)]
pub struct FileData {
    pub path: String,
    pub lexed: lexer::Lexed,
    pub markers: markers::Markers,
    pub fns: Vec<syntax::FnSpan>,
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileData {
    pub fn new(path: &str, src: &str) -> FileData {
        let lexed = lexer::lex(src);
        let markers = markers::parse(path, &lexed.comments);
        let fns = syntax::functions(&lexed.tokens);
        let test_ranges = syntax::test_mod_ranges(&lexed.tokens);
        FileData { path: path.to_owned(), lexed, markers, fns, test_ranges }
    }
}

/// The result of analysing a set of sources.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// The acquired-while-held lock graph (for `--graph` / `--dag`).
    pub graph: lockgraph::LockGraph,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Analyses in-memory `(path, source)` pairs — the composition point the
/// workspace walk and the fixture tests share.
pub fn analyze_sources<'a>(sources: impl IntoIterator<Item = (&'a str, &'a str)>) -> Analysis {
    let files: Vec<FileData> =
        sources.into_iter().map(|(path, src)| FileData::new(path, src)).collect();
    let cg = callgraph::CallGraph::build(&files);
    let mut analysis = Analysis { files_scanned: files.len(), ..Default::default() };
    let mut locks = Vec::new();
    for (fi, fd) in files.iter().enumerate() {
        analysis.findings.extend(fd.markers.hygiene.iter().cloned());
        locks.push(lockgraph::extract_file_locks(fd, fi, &cg, &mut analysis.findings));
    }
    let (graph, order_findings) = lockgraph::check(&locks, &cg);
    analysis.graph = graph;
    analysis.findings.extend(order_findings);
    analysis.findings.sort();
    analysis.findings.dedup();
    analysis
}

/// Directory names never descended into: build output, vendored
/// third-party code, test trees (unit-test modules inside live files are
/// excluded separately, by token range) and the lint's own fixtures.
/// Dot-directories (`.git`, editor caches, stray `.cargo` homes) are
/// skipped wholesale by [`workspace_files`]; a root `roadlint.toml` can
/// extend this list so a stray generated file cannot flip CI.
const SKIP_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "fixtures", "examples"];

/// Extra skip names from a `roadlint.toml` at the workspace root, parsed
/// by hand (the lint stays dependency-free): the `skip = ["…", …]` entry,
/// ignoring `#` comments. Anything else in the file is ignored.
fn config_skips(root: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(root.join("roadlint.toml")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let Some(rest) = line.strip_prefix("skip") else { continue };
        let Some(list) = rest.trim_start().strip_prefix('=') else { continue };
        for piece in list.trim().trim_start_matches('[').trim_end_matches(']').split(',') {
            let name = piece.trim().trim_matches('"');
            if !name.is_empty() {
                out.push(name.to_owned());
            }
        }
    }
    out
}

/// Collects every workspace `.rs` file under `root`, sorted for
/// deterministic output. Skips the built-in skip list, every dot-directory, and
/// any directory named by the root `roadlint.toml` skip list — in any
/// position of the tree, so a `crates/foo/target/` from a nested cargo
/// invocation is as invisible as the top-level one.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let extra = config_skips(root);
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                let skipped = name.starts_with('.')
                    || SKIP_DIRS.contains(&name.as_ref())
                    || extra.iter().any(|s| s == name.as_ref());
                if !skipped {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Walks the workspace at `root` and runs every rule.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let files = workspace_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
        sources.push((rel, src));
    }
    Ok(analyze_sources(sources.iter().map(|(p, s)| (p.as_str(), s.as_str()))))
}

#[cfg(test)]
mod walker_tests {
    use super::*;

    /// A throwaway directory tree; removed on drop so a failing assert
    /// cannot leak state into later runs.
    struct TempTree(PathBuf);

    impl TempTree {
        fn new(tag: &str) -> TempTree {
            let dir =
                std::env::temp_dir().join(format!("roadlint-walk-{tag}-{}", std::process::id()));
            if dir.exists() {
                std::fs::remove_dir_all(&dir).unwrap();
            }
            std::fs::create_dir_all(&dir).unwrap();
            TempTree(dir)
        }

        fn write(&self, rel: &str, body: &str) {
            let p = self.0.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, body).unwrap();
        }
    }

    impl Drop for TempTree {
        #[allow(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup: a drop during a failing assert must not panic again"
        )]
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn rels(root: &Path) -> Vec<String> {
        workspace_files(root)
            .unwrap()
            .into_iter()
            .map(|p| p.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/").to_string())
            .collect()
    }

    #[test]
    fn generated_and_dot_dirs_cannot_flip_the_scan() {
        let t = TempTree::new("gen");
        t.write("src/lib.rs", "fn ok() {}");
        // Stray build output — top-level and nested — plus dot-dirs:
        // none of these may reach the analysis, at any depth.
        t.write("target/debug/build/junk.rs", "fn junk() { panic!() }");
        t.write("crates/foo/target/gen.rs", "fn gen() { panic!() }");
        t.write(".cargo/registry/dep.rs", "fn dep() { panic!() }");
        t.write(".git/hooks/hook.rs", "fn hook() {}");
        assert_eq!(rels(&t.0), vec!["src/lib.rs"]);
    }

    #[test]
    fn roadlint_toml_skip_list_is_honored() {
        let t = TempTree::new("toml");
        t.write("src/lib.rs", "fn ok() {}");
        t.write("generated/schema.rs", "fn gen() { panic!() }");
        t.write("proto/out/wire.rs", "fn wire() { panic!() }");
        assert_eq!(rels(&t.0).len(), 3, "without a config all three are scanned");
        t.write(
            "roadlint.toml",
            "# extra directories the walker must never descend into\nskip = [\"generated\", \"out\"] # per-tree\n",
        );
        assert_eq!(rels(&t.0), vec!["src/lib.rs"]);
    }
}
