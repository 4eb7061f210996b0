//! Fixture-based tests for the L1–L6 rules, driven through
//! `rto-analyze`.
//!
//! Each file in `tests/fixtures/lrules/` violates **exactly one** L-rule
//! at the line marked `// VIOLATION`. The library-level tests stage a
//! fixture into a throwaway workspace and run [`analyze_workspace`] on
//! it; the binary-level tests run the CLI there (`--root <dir>`) and
//! assert its exit codes and output.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use rto_analyze::{analyze_workspace, Diagnostic};

/// `(fixture, workspace-relative path it is staged at, rule)`; the path
/// puts each fixture in a crate where its rule applies.
const FIXTURES: [(&str, &str, &str); 6] = [
    ("l1.rs", "crates/sim/src/l1.rs", "L1"),
    ("l2.rs", "crates/core/src/l2.rs", "L2"),
    ("l3.rs", "crates/core/src/l3.rs", "L3"),
    ("l4.rs", "crates/sim/src/l4.rs", "L4"),
    ("l5.rs", "crates/core/src/l5.rs", "L5"),
    ("l6.rs", "crates/obs/src/l6.rs", "L6"),
];

fn fixture(name: &str) -> String {
    let p = format!(
        "{}/tests/fixtures/lrules/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {p}: {e}"))
}

/// 1-based line of the `// VIOLATION` marker.
fn violation_line(src: &str) -> u32 {
    let idx = src
        .lines()
        .position(|l| l.contains("// VIOLATION"))
        .expect("fixture has a VIOLATION marker");
    u32::try_from(idx).expect("fixture fits in u32") + 1
}

/// A throwaway workspace, so the analyzer derives the intended crate
/// scoping from real paths.
struct TempWs {
    root: PathBuf,
}

impl TempWs {
    fn new(tag: &str) -> TempWs {
        let root =
            std::env::temp_dir().join(format!("rto-analyze-lrules-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp workspace");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write manifest");
        TempWs { root }
    }

    fn put(&self, rel: &str, content: &str) {
        let p = self.root.join(rel);
        if let Some(dir) = p.parent() {
            fs::create_dir_all(dir).expect("mkdir");
        }
        fs::write(p, content).expect("write file");
    }

    /// Every diagnostic of an uncached library-level run.
    fn diagnostics(&self) -> Vec<Diagnostic> {
        analyze_workspace(&self.root, false)
            .expect("analysis")
            .diagnostics
    }

    fn run(&self, args: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_rto-analyze"))
            .arg("--root")
            .arg(&self.root)
            .arg("--no-cache")
            .args(args)
            .output()
            .expect("spawn rto-analyze")
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// The L-rule diagnostics among `diags`.
fn l_rules(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.rule.starts_with('L')).collect()
}

/// Assert the fixture yields exactly one L-finding: `rule`, deny, at
/// the marked line.
fn assert_single(name: &str, rel: &str, rule: &str) {
    let ws = TempWs::new(rule);
    let src = fixture(name);
    ws.put(rel, &src);
    let diags = ws.diagnostics();
    let findings = l_rules(&diags);
    assert_eq!(
        findings.len(),
        1,
        "{name}: expected exactly one L-finding, got {findings:?}"
    );
    assert_eq!(findings[0].rule, rule, "{name}: wrong rule");
    assert_eq!(findings[0].severity, "deny", "{name}: wrong severity");
    assert_eq!(findings[0].line, violation_line(&src), "{name}: wrong span");
    assert_eq!(findings[0].path, rel, "{name}: wrong path");
}

#[test]
fn l1_fixture_raw_ns_arithmetic() {
    assert_single("l1.rs", "crates/sim/src/l1.rs", "L1");
}

#[test]
fn l2_fixture_float_equality() {
    assert_single("l2.rs", "crates/core/src/l2.rs", "L2");
}

#[test]
fn l3_fixture_unwrap_in_lib() {
    assert_single("l3.rs", "crates/core/src/l3.rs", "L3");
}

#[test]
fn l4_fixture_lossy_time_cast() {
    assert_single("l4.rs", "crates/sim/src/l4.rs", "L4");
}

#[test]
fn l5_fixture_wall_clock() {
    assert_single("l5.rs", "crates/core/src/l5.rs", "L5");
}

#[test]
fn l6_fixture_unjustified_relaxed() {
    assert_single("l6.rs", "crates/obs/src/l6.rs", "L6");
}

#[test]
fn inline_waiver_clears_each_fixture() {
    for (name, rel, rule) in FIXTURES {
        let ws = TempWs::new(&format!("waiver-{rule}"));
        let src = fixture(name).replace(
            "// VIOLATION",
            &format!("// analyze: allow({rule}): fixture waiver test"),
        );
        ws.put(rel, &src);
        let diags = ws.diagnostics();
        assert!(
            l_rules(&diags).is_empty(),
            "{name}: waiver should clear the finding: {diags:?}"
        );
        // The waiver is live, so A3 has nothing to report either.
        assert!(
            !diags.iter().any(|d| d.rule == "A3"),
            "{name}: waiver should not be stale or malformed: {diags:?}"
        );
    }
}

#[test]
fn retired_lint_spelling_clears_nothing() {
    for (old, rule) in [
        ("// lint: allow(L1): fixture waiver test", "L1"),
        ("// lint: relaxed-ok: fixture waiver test", "L6"),
    ] {
        let (name, rel, _) = FIXTURES
            .into_iter()
            .find(|f| f.2 == rule)
            .expect("fixture for rule");
        let ws = TempWs::new(&format!("retired-{rule}"));
        ws.put(rel, &fixture(name).replace("// VIOLATION", old));
        let diags = ws.diagnostics();
        assert_eq!(l_rules(&diags).len(), 1, "{old}: {diags:?}");
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "A3" && d.message.starts_with("malformed waiver")),
            "{old}: {diags:?}"
        );
    }
}

#[test]
fn cli_exits_nonzero_with_correct_rule_per_fixture() {
    for (name, rel, rule) in FIXTURES {
        let ws = TempWs::new(&format!("cli-{rule}"));
        ws.put(rel, &fixture(name));
        let out = ws.run(&[]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: expected exit 1, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!(": [{rule}/deny] ")),
            "{name}: stdout should name {rule}: {stdout}"
        );
    }
}

#[test]
fn cli_workspace_mode_and_json() {
    let ws = TempWs::new("ws");
    ws.put(
        "crates/stats/src/clean.rs",
        "pub fn ok(x: u64) -> u64 { x }\n",
    );
    // `stats` is an L3 library crate outside A1's scope, so L3 alone
    // decides the exit code.
    ws.put("crates/stats/src/bad.rs", &fixture("l3.rs"));
    // Test directories are exempt.
    ws.put("crates/stats/tests/itest.rs", &fixture("l3.rs"));

    let out = ws.run(&["--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\":\"L3\""), "json: {json}");
    assert!(json.contains("crates/stats/src/bad.rs"));
    assert!(!json.contains("itest.rs"), "tests/ must be exempt: {json}");

    // An allowlist entry with a reason clears the run.
    ws.put(
        "lint.allow.toml",
        "[[allow]]\npath = \"crates/stats/src/bad.rs\"\nrule = \"L3\"\nreason = \"fixture\"\n",
    );
    let out = ws.run(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "allowlisted run should pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cli_rejects_malformed_allowlist() {
    let ws = TempWs::new("allow");
    ws.put(
        "crates/core/src/clean.rs",
        "pub fn ok(x: u64) -> u64 { x }\n",
    );
    // Missing reason: hard error, exit 2.
    ws.put(
        "lint.allow.toml",
        "[[allow]]\npath = \"x.rs\"\nrule = \"L1\"\n",
    );
    let out = ws.run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("reason"));
}
