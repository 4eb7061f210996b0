//! `rto-analyze`: static analysis for the rto workspace.
//!
//! The paper's guarantees are arithmetic: integer-nanosecond
//! demand-bound math (Theorems 1–3), densities computed from
//! non-negative slack, deterministic EDF tie-breaking. One tool, one
//! waiver grammar, and one report check the code that keeps them true:
//!
//! * **L1–L6 — token-local rules** ([`rules`]) over the shared lexer
//!   ([`lexer`]): raw nanosecond arithmetic, exact float comparison,
//!   panics in library crates, lossy time casts, wall clock in the
//!   deterministic crates, and unjustified `Ordering::Relaxed` in `obs`.
//! * **A1 — panic reachability.** An interprocedural call graph over
//!   every workspace crate; any public function of `core`/`mckp`
//!   (deny) or `sim`/`obs` (warn) from which a panic-family seed
//!   (`panic!`, `.unwrap()`, `.expect(…)`, bare indexing) is
//!   transitively reachable is reported with a witness call chain.
//! * **A2 — units of measure.** Nanosecond / millisecond / ratio tags
//!   inferred from naming conventions flow through let-bindings,
//!   returns, and call arguments; cross-unit arithmetic and unguarded
//!   `D − R` divisions are denied.
//! * **A3 — stale and malformed waivers.** Every `lint.allow.toml`
//!   entry and every inline `// analyze: allow(<id>): <reason>` comment
//!   must still justify at least one finding, and a comment that looks
//!   like a waiver but breaks that grammar is denied; suppressions
//!   cannot outlive the code they excused or pass for live ones.
//! * **A4 — interval analysis** ([`interval`]) and **A5 — concurrency
//!   audit** ([`concurrency`]): value-range proofs for casts/divisions
//!   and ordering/lock-cycle/blocking checks over the worker pool.
//! * **A6 — determinism taint** ([`determinism`]): interprocedural
//!   propagation from nondeterminism sources (hash-ordered iteration,
//!   wall-clock reads, ambient RNG, env/fs reads) to the public API of
//!   the replay-critical crates, with witness chains.
//! * **A7 — hot-path allocation** ([`hotpath`]): forward reachability
//!   from `// analyze: hot-path` annotated functions to allocating
//!   constructs — the static twin of the `obs_bench` counting-allocator
//!   gate.
//! * **A8 — termination & loop bounds** ([`termination`]): every loop
//!   in the engine/solver core must carry a trip-count bound or a
//!   monotone progress witness, recursion needs a decreasing argument,
//!   and per-function symbolic step bounds are composed bottom-up so a
//!   `⊤`-bound function reachable from a hot-path root is denied.
//!
//! Escape hatches, in order of preference: fix the code; an inline
//! `// analyze: allow(<id>): <reason>` on the finding's line or the
//! line above ([`parse`] holds the one parser); a reviewed
//! `lint.allow.toml` entry ([`allow`]) for whole-file suppressions.
//!
//! The pipeline is two-phase: phase 1 ([`parse::parse_file`]) is
//! per-file, pure, and cached under `target/rto-analyze/` keyed by
//! content hash ([`cache`]); phase 2 ([`graph`], [`stale`]) is global
//! and recomputed every run. Output formats: human, JSON, and SARIF
//! 2.1.0 ([`sarif`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod cache;
pub mod concurrency;
pub mod determinism;
pub mod domains;
pub mod facts;
pub mod graph;
pub mod hotpath;
pub mod interval;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod stale;
pub mod termination;

use allow::AllowEntry;
use facts::FileFacts;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The rule catalogue: id and one-line description. Rendered as SARIF
/// rule metadata, and the set of ids an inline waiver may name.
pub const RULES: &[(&str, &str)] = &[
    (
        "L1",
        "Time-unit hygiene: raw + - * / % arithmetic on a nanosecond count outside \
         core/src/time.rs.",
    ),
    (
        "L2",
        "Exact float comparison: == or != against a float literal.",
    ),
    (
        "L3",
        "Panic in library code: unwrap/expect/panic-family macro (deny) or bare \
         indexing (warn) in a library crate.",
    ),
    (
        "L4",
        "Lossy time cast: an `as` cast that can truncate or round a nanosecond value.",
    ),
    (
        "L5",
        "Wall clock in a seed-deterministic crate: std::time or SystemTime in core or \
         sim.",
    ),
    (
        "L6",
        "Unjustified Ordering::Relaxed in obs: no reviewed waiver states why no \
         happens-before edge is needed.",
    ),
    (
        "A1",
        "Panic reachable from public API: a panic!/unwrap/expect/indexing site is \
         transitively reachable through the call graph.",
    ),
    (
        "A2",
        "Units-of-measure conflict: nanosecond/millisecond/ratio quantities mixed, or an \
         unguarded difference used as a divisor.",
    ),
    (
        "A3",
        "Stale waiver: an allowlist entry or inline lint waiver no longer matches any \
         finding.",
    ),
    (
        "A4",
        "Value-range hazard: interval analysis could not prove a cast lossless, a divisor \
         nonzero, a difference non-negative, or a sum/product in range.",
    ),
    (
        "A5",
        "Concurrency hazard: unjustified non-Relaxed atomic ordering, a lock-order cycle, \
         or a blocking call reachable from a spawned worker closure.",
    ),
    (
        "A6",
        "Determinism hazard: a public function of a replay-scoped crate can reach a \
         nondeterminism source (hash-ordered iteration, wall clock, thread id, ambient \
         RNG, environment or filesystem read).",
    ),
    (
        "A7",
        "Hot-path allocation: an allocating construct (unsized growth, String/format!, \
         Box/Rc churn, collect) is reachable from a function annotated \
         `// analyze: hot-path`.",
    ),
    (
        "A8",
        "Termination hazard: a loop without a trip-count bound or monotone progress \
         witness, recursion without a decreasing argument, or a \u{22a4}-step-bound \
         function reachable from a `// analyze: hot-path` root.",
    ),
];

/// Directories whose `.rs` files are not analyzed (test code,
/// fixtures, vendored shims, build output).
const SKIP_DIRS: &[&str] = &[
    "tests", "benches", "examples", "fixtures", "target", "vendor", ".git",
];

/// One diagnostic produced by the global phase, ready for rendering.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id: `"L1"` … `"L6"` or `"A1"` … `"A8"` (see [`RULES`]).
    pub rule: String,
    /// `"deny"` or `"warn"`.
    pub severity: String,
    /// Human-readable explanation (includes the witness chain for A1).
    pub message: String,
}

impl Diagnostic {
    /// True when this diagnostic should fail the build.
    #[must_use]
    pub fn is_deny(&self) -> bool {
        self.severity == "deny"
    }
}

/// Outcome of [`analyze_workspace`].
#[derive(Debug)]
pub struct Analysis {
    /// All diagnostics, sorted by `(path, line, rule, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files considered.
    pub files_total: usize,
    /// Files actually re-parsed this run (cache misses).
    pub files_reparsed: usize,
    /// Microseconds spent in phase 1 (hash + cache probe + parse).
    pub parse_us: u128,
}

/// Walk upward from the current directory to the workspace root
/// (the first ancestor whose `Cargo.toml` declares `[workspace]`).
///
/// # Errors
///
/// When no ancestor contains a workspace manifest.
pub fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no ancestor directory contains a [workspace] Cargo.toml".into());
        }
    }
}

/// Run the full analysis over the workspace at `root`.
///
/// With `use_cache`, phase-1 facts are read from / written to
/// `target/rto-analyze/`, and the global phase's final diagnostics are
/// cached under a whole-workspace fingerprint (file hashes, allowlist,
/// and dependency graph). A fully warm run replays those diagnostics
/// byte-identically without re-running the global phase; any change to
/// any input falls back to the full fresh computation.
///
/// # Errors
///
/// On unreadable files/directories or a malformed `lint.allow.toml`.
pub fn analyze_workspace(root: &Path, use_cache: bool) -> Result<Analysis, String> {
    let files = collect_workspace_files(root)?;
    let allowlist = read_allowlist(root)?;
    let cache_dir = root.join("target").join("rto-analyze");

    let parse_start = Instant::now();
    let mut all_facts: Vec<FileFacts> = Vec::with_capacity(files.len());
    let mut srcs: HashMap<String, String> = HashMap::with_capacity(files.len());
    let mut file_hashes: Vec<(String, u64)> = Vec::with_capacity(files.len());
    let mut reparsed = 0usize;
    for file in &files {
        let src =
            fs::read_to_string(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let hash = cache::fnv64(src.as_bytes());
        let cached = if use_cache {
            cache::load(&cache_dir, &rel, hash)
        } else {
            None
        };
        let facts = match cached {
            Some(f) => f,
            None => {
                reparsed += 1;
                let f = parse::parse_file(&rel, &src);
                if use_cache {
                    cache::store(&cache_dir, &f, hash)?;
                }
                f
            }
        };
        file_hashes.push((rel.clone(), hash));
        srcs.insert(rel, src);
        all_facts.push(facts);
    }
    let parse_us = parse_start.elapsed().as_micros();

    let deps = crate_deps(root)?;

    // Fingerprint of everything the global phase depends on: file
    // contents, the allowlist, and the crate dependency graph. A warm
    // run whose fingerprint matches returns the cached diagnostics
    // verbatim and skips the global phase (including the phase-2
    // fixpoint re-walk) entirely.
    let fingerprint = {
        use std::fmt::Write as _;
        let mut s = String::new();
        file_hashes.sort();
        for (rel, h) in &file_hashes {
            let _ = writeln!(s, "{rel}\t{h:016x}");
        }
        s.push_str(&fs::read_to_string(root.join("lint.allow.toml")).unwrap_or_default());
        let mut dks: Vec<&String> = deps.keys().collect();
        dks.sort();
        for k in dks {
            let _ = writeln!(s, "D\t{k}\t{}", deps[k].join(","));
        }
        cache::fnv64(s.as_bytes())
    };
    if use_cache {
        if let Some(diagnostics) = cache::load_global(&cache_dir, fingerprint) {
            return Ok(Analysis {
                diagnostics,
                files_total: files.len(),
                files_reparsed: reparsed,
                parse_us,
            });
        }
    }

    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // L1–L6 and intra-function A2 findings, minus inline and allowlist
    // waivers (waivers are applied here, not at parse time, to keep the
    // cache pure in the file content).
    for ff in &all_facts {
        for d in ff.lint_prod.iter().chain(&ff.a2_local) {
            if !inline_waived(ff, &d.rule, d.line) && !allowlist_waived(&allowlist, ff, &d.rule) {
                diagnostics.push(Diagnostic {
                    path: ff.rel_path.clone(),
                    line: d.line,
                    rule: d.rule.clone(),
                    severity: d.severity.clone(),
                    message: d.message.clone(),
                });
            }
        }
    }

    diagnostics.extend(graph::check(&all_facts, &allowlist, &deps));
    diagnostics.extend(interval::check(&all_facts, &srcs, &allowlist, &deps));
    diagnostics.extend(concurrency::check(&all_facts, &allowlist, &deps));
    diagnostics.extend(determinism::check(&all_facts, &allowlist, &deps));
    diagnostics.extend(hotpath::check(&all_facts, &allowlist, &deps));
    diagnostics.extend(termination::check(&all_facts, &allowlist, &deps));
    diagnostics.extend(stale::check(&all_facts, &allowlist));

    diagnostics.sort();
    diagnostics.dedup();

    if use_cache {
        cache::store_global(&cache_dir, fingerprint, &diagnostics)?;
    }

    Ok(Analysis {
        diagnostics,
        files_total: files.len(),
        files_reparsed: reparsed,
        parse_us,
    })
}

/// Does an inline `// analyze: allow(rule): reason` waiver cover
/// `line`? (A waiver on line *w* covers findings on *w* and *w + 1*.)
#[must_use]
pub fn inline_waived(ff: &FileFacts, rule: &str, line: u32) -> bool {
    ff.waivers.iter().any(|w| w.covers(rule, line))
}

/// Does a whole-file `lint.allow.toml` entry cover `(file, rule)`?
#[must_use]
pub fn allowlist_waived(allowlist: &[AllowEntry], ff: &FileFacts, rule: &str) -> bool {
    allowlist.iter().any(|e| e.suppresses(rule, &ff.rel_path))
}

/// Parse `lint.allow.toml` at the workspace root (absent file = empty).
fn read_allowlist(root: &Path) -> Result<Vec<AllowEntry>, String> {
    let path = root.join("lint.allow.toml");
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let src =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    allow::parse(&src)
}

/// Collect every analyzable `.rs` file under `root`: the facade
/// package's `src/` plus each `crates/*/src` tree, skipping
/// [`SKIP_DIRS`].
///
/// # Errors
///
/// If a directory cannot be read.
pub fn collect_workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for dir in [root.join("src"), root.join("crates")] {
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Direct `rto-*` dependencies of each crate, from `crates/*/Cargo.toml`
/// (call resolution never crosses a missing dependency edge). The
/// facade package at the root gets the key `"rto"`.
///
/// # Errors
///
/// When the `crates/` directory cannot be listed.
pub fn crate_deps(root: &Path) -> Result<HashMap<String, Vec<String>>, String> {
    let mut deps: HashMap<String, Vec<String>> = HashMap::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir error: {e}"))?;
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().to_string();
            let manifest = entry.path().join("Cargo.toml");
            let text = fs::read_to_string(&manifest).unwrap_or_default();
            deps.insert(name, manifest_rto_deps(&text));
        }
    }
    // The facade package depends on the whole workspace.
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    deps.insert("rto".into(), manifest_rto_deps(&root_manifest));
    Ok(deps)
}

/// Crate directory names referenced by `path = ".../<dir>"` dependency
/// entries on `rto-*` lines of a manifest.
fn manifest_rto_deps(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if !line.starts_with("rto-") {
            continue;
        }
        let Some(idx) = line.find("path") else {
            continue;
        };
        let rest = &line[idx..];
        let Some(open) = rest.find('"') else { continue };
        let Some(close) = rest[open + 1..].find('"') else {
            continue;
        };
        let path = &rest[open + 1..open + 1 + close];
        if let Some(dir) = path.rsplit('/').next() {
            if !dir.is_empty() {
                out.push(dir.to_string());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_dep_extraction() {
        let m = "[dependencies]\nrto-core = { path = \"../core\" }\n\
                 rto-obs = { path = \"../obs\" }\nserde = { path = \"../../vendor/serde\" }\n";
        assert_eq!(manifest_rto_deps(m), vec!["core".to_string(), "obs".into()]);
        let facade = "rto-mckp = { path = \"crates/mckp\" }\n";
        assert_eq!(manifest_rto_deps(facade), vec!["mckp".to_string()]);
    }

    #[test]
    fn inline_waiver_coverage() {
        let mut ff = FileFacts::default();
        ff.waivers.push(facts::WaiverComment {
            kind: facts::WaiverKind::Allow("A2".into()),
            line: 10,
        });
        assert!(inline_waived(&ff, "A2", 10));
        assert!(inline_waived(&ff, "A2", 11));
        assert!(!inline_waived(&ff, "A2", 12));
        assert!(!inline_waived(&ff, "A1", 10));
    }
}
