//! House lint for the handshake-join workspace (run in CI).
//!
//! Four rules, all textual and dependency-free:
//!
//! 1. **`facade`** — no direct `std::sync` / `std::thread` /
//!    `std::time::Instant` use outside `crates/sync`.  Every other crate
//!    must go through the `llhj-sync` facade so the model backend can
//!    intercept it.  (`std::time::Duration` is plain data and is fine.)
//! 2. **`safety-comment`** — every `unsafe` keyword (block, fn, impl)
//!    must have a `// SAFETY:` comment on the same line or within the
//!    eight lines above it.  Complements `clippy::undocumented_unsafe_blocks`,
//!    which does not cover `unsafe impl`.
//! 3. **`relaxed-ordering`** — `Ordering::Relaxed` may appear only in
//!    whitelisted files whose orderings have been audited and documented
//!    (`runtime/src/metrics.rs`, `runtime/src/exec.rs`, and the facade
//!    itself).
//! 4. **`ordering-audit`** — in the lock-free transport
//!    (`runtime/src/ring.rs`), every atomic access that names a memory
//!    `Ordering` must carry an `// ordering:` audit comment on the same
//!    line or within the eight lines above, pairing the access with its
//!    counterpart.  The model checker explores interleavings but ignores
//!    ordering arguments (§9 of ARCHITECTURE.md); the written audit is
//!    the weak-memory half of the argument.
//!
//! A line may waive a rule with a trailing `// lint:allow(<rule>)`
//! comment; waivers are reported in the summary so they stay visible.
//!
//! Usage: `cargo run -p llhj-lint` from anywhere in the workspace.
//! Exits non-zero if any violation is found.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directories scanned for Rust sources, relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["src", "crates", "tests"];

/// Files allowed to use `Ordering::Relaxed` (audited + documented).
const RELAXED_WHITELIST: &[&str] = &[
    "crates/runtime/src/metrics.rs",
    "crates/runtime/src/exec.rs",
];

/// Files whose every `Ordering`-bearing atomic access must carry an
/// `// ordering:` audit comment (the lock-free hot paths).
const ORDERING_AUDIT_FILES: &[&str] = &["crates/runtime/src/ring.rs"];

/// Path prefixes exempt from the facade rule: the facade itself (it
/// wraps std) and the lint (no concurrency).
const FACADE_EXEMPT_PREFIXES: &[&str] = &["crates/sync/", "crates/lint/"];

/// Tokens whose presence (outside the exempt crates) means the file
/// bypasses the facade.  `std::time::Instant` is additionally caught in
/// brace-import form (`std::time::{.., Instant}`) by `lint_file`.
const FACADE_BANNED: &[&str] = &["std::sync", "std::thread", "std::time::Instant"];

struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

fn main() {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    let mut waivers = 0usize;
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("llhj-lint: cannot read {rel}: {e}");
                std::process::exit(2);
            }
        };
        lint_file(&rel, &text, &mut violations, &mut waivers);
    }

    if violations.is_empty() {
        println!(
            "llhj-lint: OK — {} files clean ({} waiver(s))",
            files.len(),
            waivers
        );
        return;
    }
    let mut report = String::new();
    for v in &violations {
        let _ = writeln!(report, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    eprint!("{report}");
    eprintln!(
        "llhj-lint: {} violation(s) in {} files scanned",
        violations.len(),
        files.len()
    );
    std::process::exit(1);
}

fn workspace_root() -> PathBuf {
    // The lint lives at <root>/crates/lint; CARGO_MANIFEST_DIR is set by
    // cargo run.  Fall back to the current directory's workspace marker.
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(dir);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("Cargo.toml").exists() {
                return root.to_path_buf();
            }
        }
    }
    let mut cur = std::env::current_dir().expect("cannot read current dir");
    loop {
        if cur.join("Cargo.toml").exists() && cur.join("crates").is_dir() {
            return cur;
        }
        if !cur.pop() {
            eprintln!("llhj-lint: cannot locate the workspace root");
            std::process::exit(2);
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Strips `//` comments and the contents of ordinary string literals so
/// token matching does not fire inside either.  Keeps the `// SAFETY:`
/// detection separate (that one *wants* the comment text).
fn code_portion(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    let _ = chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

fn has_waiver(line: &str, rule: &str) -> bool {
    line.contains(&format!("lint:allow({rule})"))
}

fn word_match(code: &str, needle: &str) -> bool {
    // Token match with an identifier-boundary check on both sides, so
    // e.g. `unsafe_op_in_unsafe_fn` does not match `unsafe`.
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

fn lint_file(rel: &str, text: &str, violations: &mut Vec<Violation>, waivers: &mut usize) {
    let lines: Vec<&str> = text.lines().collect();
    let facade_exempt = FACADE_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p));
    let relaxed_ok = facade_exempt || RELAXED_WHITELIST.contains(&rel);
    let ordering_audited = ORDERING_AUDIT_FILES.contains(&rel);

    for (idx, raw) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = code_portion(raw);

        if !facade_exempt {
            // Catch `use std::time::{Duration, Instant}` too: the plain
            // token list below only sees the fully-qualified path form.
            let brace_instant = code.contains("std::time::{") && word_match(&code, "Instant");
            let hits = FACADE_BANNED
                .iter()
                .filter(|banned| code.contains(*banned))
                .copied()
                .chain(brace_instant.then_some("std::time::Instant"));
            for banned in hits {
                {
                    if has_waiver(raw, "facade") {
                        *waivers += 1;
                    } else {
                        violations.push(Violation {
                            file: rel.to_string(),
                            line: lineno,
                            rule: "facade",
                            message: format!(
                                "direct `{banned}` use; import from `llhj_sync` instead \
                                 (the model backend must be able to intercept it)"
                            ),
                        });
                    }
                }
            }
        }

        if !relaxed_ok && code.contains("Ordering::Relaxed") {
            if has_waiver(raw, "relaxed-ordering") {
                *waivers += 1;
            } else {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "relaxed-ordering",
                    message: "Ordering::Relaxed outside the audited whitelist \
                              (see crates/lint/src/main.rs RELAXED_WHITELIST)"
                        .to_string(),
                });
            }
        }

        if ordering_audited && code.contains("Ordering::") {
            let documented = raw.contains("ordering:")
                || lines[idx.saturating_sub(8)..idx]
                    .iter()
                    .any(|l| l.contains("ordering:"));
            if !documented {
                if has_waiver(raw, "ordering-audit") {
                    *waivers += 1;
                } else {
                    violations.push(Violation {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "ordering-audit",
                        message: "atomic access without an `// ordering:` audit comment on \
                                  the same line or within the eight lines above"
                            .to_string(),
                    });
                }
            }
        }

        if word_match(&code, "unsafe") && !code.contains("unsafe_code") {
            let documented = raw.contains("SAFETY:")
                || lines[idx.saturating_sub(8)..idx]
                    .iter()
                    .any(|l| l.contains("SAFETY:"));
            if !documented {
                if has_waiver(raw, "safety-comment") {
                    *waivers += 1;
                } else {
                    violations.push(Violation {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "safety-comment",
                        message: "`unsafe` without a `// SAFETY:` comment on the same line \
                                  or within the eight lines above"
                            .to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_portion_strips_comments_and_strings() {
        assert_eq!(code_portion("let x = 1; // std::sync"), "let x = 1; ");
        assert_eq!(code_portion("let s = \"std::sync\";"), "let s = \"\";");
        assert_eq!(code_portion("a(); // SAFETY: fine"), "a(); ");
    }

    #[test]
    fn word_match_respects_boundaries() {
        assert!(word_match("unsafe {", "unsafe"));
        assert!(!word_match("unsafe_op_in_unsafe_fn", "unsafe"));
        assert!(word_match("pub unsafe fn f()", "unsafe"));
    }

    #[test]
    fn facade_rule_catches_brace_imports() {
        let mut v = Vec::new();
        let mut w = 0;
        lint_file(
            "crates/runtime/src/x.rs",
            "use std::time::{Duration, Instant};\n",
            &mut v,
            &mut w,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "facade");
        // Duration alone stays allowed.
        v.clear();
        lint_file(
            "crates/runtime/src/x.rs",
            "use std::time::{Duration};\n",
            &mut v,
            &mut w,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn facade_rule_fires() {
        let mut v = Vec::new();
        let mut w = 0;
        lint_file(
            "crates/runtime/src/x.rs",
            "use std::sync::Mutex;\n",
            &mut v,
            &mut w,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "facade");
    }

    #[test]
    fn waiver_suppresses_and_counts() {
        let mut v = Vec::new();
        let mut w = 0;
        lint_file(
            "crates/runtime/src/x.rs",
            "use std::thread; // lint:allow(facade)\n",
            &mut v,
            &mut w,
        );
        assert!(v.is_empty());
        assert_eq!(w, 1);
    }

    #[test]
    fn safety_comment_window() {
        let mut v = Vec::new();
        let mut w = 0;
        let ok = "// SAFETY: serialized by the scheduler.\nunsafe { x() }\n";
        lint_file("crates/core/src/x.rs", ok, &mut v, &mut w);
        assert!(v.is_empty());
        let bad = "unsafe { x() }\n";
        lint_file("crates/core/src/x.rs", bad, &mut v, &mut w);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
    }

    #[test]
    fn ordering_audit_requires_the_comment_in_ring() {
        let mut v = Vec::new();
        let mut w = 0;
        let ok = "// ordering: Acquire pairs with the producer's Release.\n\
                  let seq = slot.seq.load(Ordering::Acquire);\n";
        lint_file("crates/runtime/src/ring.rs", ok, &mut v, &mut w);
        assert!(v.is_empty());
        let bad = "let seq = slot.seq.load(Ordering::Acquire);\n";
        lint_file("crates/runtime/src/ring.rs", bad, &mut v, &mut w);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ordering-audit");
        // Other files are not held to the rule (the relaxed whitelist
        // still governs them).
        v.clear();
        lint_file("crates/runtime/src/channel.rs", bad, &mut v, &mut w);
        assert!(v.is_empty());
    }

    #[test]
    fn relaxed_whitelist() {
        let mut v = Vec::new();
        let mut w = 0;
        lint_file(
            "crates/runtime/src/metrics.rs",
            "x.load(Ordering::Relaxed);\n",
            &mut v,
            &mut w,
        );
        assert!(v.is_empty());
        lint_file(
            "crates/runtime/src/channel.rs",
            "x.load(Ordering::Relaxed);\n",
            &mut v,
            &mut w,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-ordering");
    }
}
