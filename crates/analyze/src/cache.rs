//! Incremental per-file facts cache under `target/rto-analyze/`.
//!
//! One cache file per source file, named `<fnv64(rel_path)>.facts`,
//! holding a version-tagged, line-oriented serialization of
//! [`FileFacts`] plus the FNV-1a hash of the source content it was
//! computed from. A warm run re-parses exactly the files whose content
//! hash changed.
//!
//! A second, whole-workspace entry (`global.diag`) caches the final
//! diagnostics of the global phase, keyed by a fingerprint over every
//! file's content hash, the allowlist, and the crate dependency graph.
//! A fully warm run returns those diagnostics verbatim and skips the
//! global phase (including the phase-2 fixpoint re-walk) entirely, so
//! cached and uncached runs produce byte-identical diagnostics while
//! the warm path stays fast.
//!
//! The format is deliberately dumb: tab-separated records, one per
//! line, with `\t`/`\n`/`\\` escaped in free-text fields. Any parse
//! hiccup (truncation, version bump, hand-editing) is treated as a
//! cache miss, never an error.

use crate::facts::{
    A4Kind, A4Site, AllocFact, AllocKind, AtomicFact, BlockFact, CallFact, FileFacts, FnFact,
    LoopFact, LoopKind, NondetFact, NondetKind, RawFinding, SeedFact, SeedKind, Unit,
    WaiverComment, WaiverKind,
};
use std::fs;
use std::path::{Path, PathBuf};

/// Bump when the serialization or the fact model changes.
/// v2: A4 interval sites + summaries (`I`, `ret_abs`/`ret_ty` on `F`,
/// type on `A`, `in_spawn` on `C`) and A5 facts (`K`/`B`/`T`).
/// v3: body token spans on `F` and module-level consts (`N`) for the
/// interprocedural fixpoint engine.
/// v4: A6 nondeterminism sources (`D`), A7 allocation sites (`G`), the
/// `hot` flag on `F`, and file-level capacity evidence (`E`).
/// v5: A8 loop facts (`O`) and `method`/`loop_depth`/`decreasing` on
/// `C`.
/// v6: one waiver grammar — malformed waivers (`W\tmalformed`) replace
/// `relaxed-ok` waivers, and the `Relaxed` line list (`R`) is gone
/// (L6 findings carry those lines now).
pub(crate) const CACHE_VERSION: u32 = 6;

/// 64-bit FNV-1a hash (the cache key for both file names and content).
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Cache file path for a workspace-relative source path.
fn entry_path(dir: &Path, rel_path: &str) -> PathBuf {
    dir.join(format!("{:016x}.facts", fnv64(rel_path.as_bytes())))
}

/// Load cached facts for `rel_path` if present and still valid for
/// content hash `hash`; any mismatch or decode failure is a miss.
#[must_use]
pub fn load(dir: &Path, rel_path: &str, hash: u64) -> Option<FileFacts> {
    let text = fs::read_to_string(entry_path(dir, rel_path)).ok()?;
    let facts = decode(&text, hash)?;
    // Hash collisions across *names* map two sources to one cache
    // file; the embedded path disambiguates.
    (facts.rel_path == rel_path).then_some(facts)
}

/// Write facts for a file with content hash `hash`.
///
/// # Errors
///
/// When the cache directory or file cannot be written.
pub fn store(dir: &Path, facts: &FileFacts, hash: u64) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = entry_path(dir, &facts.rel_path);
    fs::write(&path, encode(facts, hash))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Path of the cached global-phase diagnostics.
fn global_path(dir: &Path) -> PathBuf {
    dir.join("global.diag")
}

/// Load the cached global diagnostics when the workspace fingerprint
/// (and cache version) match; any mismatch or decode failure is a miss.
#[must_use]
pub fn load_global(dir: &Path, fingerprint: u64) -> Option<Vec<crate::Diagnostic>> {
    let text = fs::read_to_string(global_path(dir)).ok()?;
    let mut lines = text.lines();
    let mut h = lines.next()?.split('\t');
    if h.next()? != "rto-analyze-global" {
        return None;
    }
    if h.next()?.parse::<u32>().ok()? != CACHE_VERSION {
        return None;
    }
    if u64::from_str_radix(h.next()?, 16).ok()? != fingerprint {
        return None;
    }
    let mut out = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        out.push(crate::Diagnostic {
            path: unesc(parts.next()?),
            line: parts.next()?.parse().ok()?,
            rule: unesc(parts.next()?),
            severity: unesc(parts.next()?),
            message: unesc(parts.next()?),
        });
    }
    Some(out)
}

/// Store the global diagnostics under a workspace fingerprint.
///
/// # Errors
///
/// When the cache directory or file cannot be written.
pub fn store_global(
    dir: &Path,
    fingerprint: u64,
    diags: &[crate::Diagnostic],
) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "rto-analyze-global\t{CACHE_VERSION}\t{fingerprint:016x}"
    );
    for d in diags {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            esc(&d.path),
            d.line,
            esc(&d.rule),
            esc(&d.severity),
            esc(&d.message)
        );
    }
    let path = global_path(dir);
    fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// `None` ↔ `"-"` for optional name fields (idents can never be `-`).
fn opt(s: Option<&str>) -> &str {
    s.unwrap_or("-")
}

fn opt_back(s: &str) -> Option<String> {
    (s != "-").then(|| s.to_string())
}

/// Serialize facts to the line-oriented cache text.
#[must_use]
pub fn encode(facts: &FileFacts, hash: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "rto-analyze-cache\t{CACHE_VERSION}\t{hash:016x}");
    let _ = writeln!(
        out,
        "P\t{}\t{}",
        esc(&facts.rel_path),
        opt(facts.crate_dir.as_deref())
    );
    for f in &facts.fns {
        let _ = writeln!(
            out,
            "F\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            esc(&f.name),
            opt(f.qual.as_deref()),
            opt(f.trait_name.as_deref()),
            u8::from(f.is_pub),
            f.line,
            f.ret_unit.as_str(),
            if f.ret_ty.is_empty() { "-" } else { &f.ret_ty },
            if f.ret_abs.is_empty() {
                "-"
            } else {
                &f.ret_abs
            },
            f.body_span.0,
            f.body_span.1,
            u8::from(f.hot)
        );
        for (idx, (name, unit)) in f.params.iter().enumerate() {
            let ty = f.param_tys.get(idx).map_or("", String::as_str);
            let _ = writeln!(
                out,
                "A\t{}\t{}\t{}",
                esc(name),
                unit.as_str(),
                if ty.is_empty() { "-" } else { ty }
            );
        }
        for c in &f.calls {
            let units: Vec<&str> = c.arg_units.iter().map(|u| u.as_str()).collect();
            let _ = writeln!(
                out,
                "C\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                esc(&c.callee),
                opt(c.qual.as_deref()),
                c.line,
                if units.is_empty() {
                    "-".to_string()
                } else {
                    units.join(",")
                },
                u8::from(c.in_spawn),
                u8::from(c.method),
                u8::from(c.recv_self),
                c.loop_depth,
                u8::from(c.decreasing)
            );
        }
        for s in &f.seeds {
            let _ = writeln!(
                out,
                "S\t{}\t{}\t{}",
                s.kind.as_str(),
                s.line,
                u8::from(s.waived)
            );
        }
        for (name, line) in &f.lock_acqs {
            let _ = writeln!(out, "K\t{}\t{}", esc(name), line);
        }
        for b in &f.blocking {
            let _ = writeln!(
                out,
                "B\t{}\t{}\t{}",
                esc(&b.desc),
                b.line,
                u8::from(b.in_spawn)
            );
        }
        for n in &f.nondet {
            let _ = writeln!(
                out,
                "D\t{}\t{}\t{}\t{}",
                n.kind.as_str(),
                n.line,
                u8::from(n.waived),
                esc(&n.desc)
            );
        }
        for a in &f.allocs {
            let _ = writeln!(
                out,
                "G\t{}\t{}\t{}\t{}",
                a.kind.as_str(),
                a.line,
                u8::from(a.waived),
                esc(&a.desc)
            );
        }
        for l in &f.loops {
            let _ = writeln!(
                out,
                "O\t{}\t{}\t{}\t{}\t{}\t{}",
                l.kind.as_str(),
                l.line,
                l.depth,
                esc(&l.desc),
                esc(&l.witness),
                u8::from(l.waived)
            );
        }
    }
    for a in &facts.atomics {
        let _ = writeln!(out, "T\t{}\t{}\t{}", esc(&a.op), esc(&a.ordering), a.line);
    }
    for s in &facts.a4 {
        let _ = writeln!(
            out,
            "I\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.kind.as_str(),
            s.line,
            esc(&s.expr),
            esc(&s.target),
            esc(&s.witness),
            u8::from(s.definite),
            opt(s.dep.as_ref().and_then(|d| d.0.as_deref())),
            opt(s.dep.as_ref().map(|d| d.1.as_str()))
        );
    }
    for (tag, list) in [
        ("L", &facts.lint_prod),
        ("M", &facts.lint_all),
        ("X", &facts.a2_local),
    ] {
        for f in list {
            let _ = writeln!(
                out,
                "{tag}\t{}\t{}\t{}\t{}",
                esc(&f.rule),
                f.line,
                esc(&f.severity),
                esc(&f.message)
            );
        }
    }
    for w in &facts.waivers {
        let (tag, text) = match &w.kind {
            WaiverKind::Allow(rule) => ("allow", rule),
            WaiverKind::Malformed(problem) => ("malformed", problem),
        };
        let _ = writeln!(out, "W\t{tag}\t{}\t{}", esc(text), w.line);
    }
    for (name, ty, value) in &facts.consts {
        let _ = writeln!(
            out,
            "N\t{}\t{}\t{}",
            esc(name),
            if ty.is_empty() { "-" } else { ty },
            value
        );
    }
    if facts.capacity_evidence {
        let _ = writeln!(out, "E\t1");
    }
    out
}

/// Decode cache text; `None` on version/hash mismatch or malformed
/// records (treated as a miss by the caller).
#[must_use]
pub fn decode(text: &str, want_hash: u64) -> Option<FileFacts> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let mut h = header.split('\t');
    if h.next()? != "rto-analyze-cache" {
        return None;
    }
    if h.next()?.parse::<u32>().ok()? != CACHE_VERSION {
        return None;
    }
    if u64::from_str_radix(h.next()?, 16).ok()? != want_hash {
        return None;
    }

    let mut facts = FileFacts::default();
    let mut cur_fn: Option<FnFact> = None;
    for line in lines {
        let mut parts = line.split('\t');
        let tag = parts.next()?;
        match tag {
            "P" => {
                facts.rel_path = unesc(parts.next()?);
                facts.crate_dir = opt_back(parts.next()?);
            }
            "F" => {
                if let Some(f) = cur_fn.take() {
                    facts.fns.push(f);
                }
                cur_fn = Some(FnFact {
                    name: unesc(parts.next()?),
                    qual: opt_back(parts.next()?),
                    trait_name: opt_back(parts.next()?),
                    is_pub: parts.next()? == "1",
                    line: parts.next()?.parse().ok()?,
                    ret_unit: Unit::from_str_lossy(parts.next()?),
                    ret_ty: opt_back(parts.next()?).unwrap_or_default(),
                    ret_abs: opt_back(parts.next()?).unwrap_or_default(),
                    body_span: (parts.next()?.parse().ok()?, parts.next()?.parse().ok()?),
                    hot: parts.next()? == "1",
                    ..FnFact::default()
                });
            }
            "A" => {
                let name = unesc(parts.next()?);
                let unit = Unit::from_str_lossy(parts.next()?);
                let ty = opt_back(parts.next()?).unwrap_or_default();
                let f = cur_fn.as_mut()?;
                f.params.push((name, unit));
                f.param_tys.push(ty);
            }
            "C" => {
                let callee = unesc(parts.next()?);
                let qual = opt_back(parts.next()?);
                let line_no = parts.next()?.parse().ok()?;
                let units_field = parts.next()?;
                let arg_units = if units_field == "-" {
                    Vec::new()
                } else {
                    units_field.split(',').map(Unit::from_str_lossy).collect()
                };
                let in_spawn = parts.next()? == "1";
                let method = parts.next()? == "1";
                let recv_self = parts.next()? == "1";
                let loop_depth = parts.next()?.parse().ok()?;
                let decreasing = parts.next()? == "1";
                cur_fn.as_mut()?.calls.push(CallFact {
                    callee,
                    qual,
                    line: line_no,
                    arg_units,
                    in_spawn,
                    method,
                    recv_self,
                    loop_depth,
                    decreasing,
                });
            }
            "K" => {
                let name = unesc(parts.next()?);
                let line_no = parts.next()?.parse().ok()?;
                cur_fn.as_mut()?.lock_acqs.push((name, line_no));
            }
            "B" => {
                let desc = unesc(parts.next()?);
                let line_no = parts.next()?.parse().ok()?;
                let in_spawn = parts.next()? == "1";
                cur_fn.as_mut()?.blocking.push(BlockFact {
                    desc,
                    line: line_no,
                    in_spawn,
                });
            }
            "T" => {
                let op = unesc(parts.next()?);
                let ordering = unesc(parts.next()?);
                let line_no = parts.next()?.parse().ok()?;
                facts.atomics.push(AtomicFact {
                    op,
                    ordering,
                    line: line_no,
                });
            }
            "I" => {
                let kind = A4Kind::from_str_lossy(parts.next()?);
                let line_no = parts.next()?.parse().ok()?;
                let expr = unesc(parts.next()?);
                let target = unesc(parts.next()?);
                let witness = unesc(parts.next()?);
                let definite = parts.next()? == "1";
                let dep_qual = opt_back(parts.next()?);
                let dep_name = opt_back(parts.next()?);
                facts.a4.push(A4Site {
                    kind,
                    line: line_no,
                    expr,
                    target,
                    witness,
                    definite,
                    dep: dep_name.map(|n| (dep_qual, n)),
                });
            }
            "D" => {
                let kind = NondetKind::from_str_lossy(parts.next()?);
                let line_no = parts.next()?.parse().ok()?;
                let waived = parts.next()? == "1";
                let desc = unesc(parts.next()?);
                cur_fn.as_mut()?.nondet.push(NondetFact {
                    kind,
                    line: line_no,
                    waived,
                    desc,
                });
            }
            "G" => {
                let kind = AllocKind::from_str_lossy(parts.next()?);
                let line_no = parts.next()?.parse().ok()?;
                let waived = parts.next()? == "1";
                let desc = unesc(parts.next()?);
                cur_fn.as_mut()?.allocs.push(AllocFact {
                    kind,
                    line: line_no,
                    waived,
                    desc,
                });
            }
            "O" => {
                let kind = LoopKind::from_str_lossy(parts.next()?);
                let line_no = parts.next()?.parse().ok()?;
                let depth = parts.next()?.parse().ok()?;
                let desc = unesc(parts.next()?);
                let witness = unesc(parts.next()?);
                let waived = parts.next()? == "1";
                cur_fn.as_mut()?.loops.push(LoopFact {
                    kind,
                    line: line_no,
                    depth,
                    desc,
                    witness,
                    waived,
                });
            }
            "E" => {
                facts.capacity_evidence = parts.next()? == "1";
            }
            "S" => {
                let kind = SeedKind::from_str_lossy(parts.next()?);
                let line_no = parts.next()?.parse().ok()?;
                let waived = parts.next()? == "1";
                cur_fn.as_mut()?.seeds.push(SeedFact {
                    kind,
                    line: line_no,
                    waived,
                });
            }
            "L" | "M" | "X" => {
                let f = RawFinding {
                    rule: unesc(parts.next()?),
                    line: parts.next()?.parse().ok()?,
                    severity: unesc(parts.next()?),
                    message: unesc(parts.next()?),
                };
                match tag {
                    "L" => facts.lint_prod.push(f),
                    "M" => facts.lint_all.push(f),
                    _ => facts.a2_local.push(f),
                }
            }
            "W" => {
                let kind = match parts.next()? {
                    "allow" => WaiverKind::Allow(unesc(parts.next()?)),
                    "malformed" => WaiverKind::Malformed(unesc(parts.next()?)),
                    _ => return None,
                };
                let line_no = parts.next()?.parse().ok()?;
                facts.waivers.push(WaiverComment {
                    kind,
                    line: line_no,
                });
            }
            "N" => {
                let name = unesc(parts.next()?);
                let ty = opt_back(parts.next()?).unwrap_or_default();
                let value = parts.next()?.parse().ok()?;
                facts.consts.push((name, ty, value));
            }
            _ => return None,
        }
    }
    if let Some(f) = cur_fn.take() {
        facts.fns.push(f);
    }
    Some(facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    #[test]
    fn fnv64_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let src = "const CAP: u64 = 32;\n\
                   pub fn api_ns(d_ns: u64, w_ms: f64) -> u64 {\n\
                   // analyze: allow(A1): reviewed\n    let x = d_ns;\n    helper(x);\n\
                   Duration::from_ns(d_ns);\n    v.unwrap();\n    x\n}\n\
                   // analyze: allow(L6) tally\n\
                   fn g(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n\
                   // analyze: hot-path\n\
                   fn h(m: &HashMap<u8, u8>, s: &mut Vec<u8>) {\n\
                   s.reserve(1);\n    for v in m.values() { s.push(*v); }\n\
                   // analyze: allow(A7): sanctioned\n    let t = format!(\"x\");\n\
                   let mut i = 0;\n    while i < 4 { i += 1; step(i - 1); }\n\
                   loop { s.pop(); }\n}\n";
        let facts = parse_file("crates/core/src/x.rs", src);
        let hash = fnv64(src.as_bytes());
        let decoded = decode(&encode(&facts, hash), hash).expect("roundtrip");
        assert_eq!(format!("{facts:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn wrong_hash_or_version_misses() {
        let facts = parse_file("crates/core/src/x.rs", "fn f() {}\n");
        let text = encode(&facts, 42);
        assert!(decode(&text, 43).is_none());
        let bumped = text.replace("rto-analyze-cache\t6\t", "rto-analyze-cache\t999\t");
        assert!(decode(&bumped, 42).is_none());
    }

    #[test]
    fn escaping_survives_tabs_and_newlines() {
        assert_eq!(unesc(&esc("a\tb\nc\\d\re")), "a\tb\nc\\d\re");
    }

    #[test]
    fn store_load_cycle() {
        let dir = std::env::temp_dir().join(format!("rto-analyze-test-{}", std::process::id()));
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let facts = parse_file("crates/core/src/y.rs", src);
        let hash = fnv64(src.as_bytes());
        store(&dir, &facts, hash).expect("store");
        let loaded = load(&dir, "crates/core/src/y.rs", hash).expect("load hit");
        assert_eq!(format!("{facts:?}"), format!("{loaded:?}"));
        assert!(load(&dir, "crates/core/src/y.rs", hash ^ 1).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
