//! Crate-root attribute audits: `#![forbid(unsafe_code)]` everywhere, no
//! `unsafe` tokens anywhere, and `#![warn(missing_docs)]` on every crate
//! root. The compiler then checks per-item documentation itself, and the
//! workspace's `unreachable_pub` lint keeps every `pub` item one that
//! `missing_docs` can see; these sweeps keep the crate-root attributes
//! pinned. A last audit checks that every lint an `#[expect]` names is
//! switched on by the workspace lint policy.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use boxes_lint::model::SourceFile;

/// Every `.rs` file under the workspace's `crates/` and `xtask/` trees.
/// (`third_party/` holds vendored offline API stubs and is exempt.)
fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "xtask", "tests"] {
        collect_rs(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Crate roots that must carry the workspace-wide inner attributes.
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    roots.push(root.join("xtask/src/main.rs"));
    roots.sort();
    roots
}

/// Every crate root forbids unsafe code and no source line contains an
/// `unsafe` form outside comments.
pub(crate) fn audit_unsafe(root: &Path) -> bool {
    let mut ok = true;
    for lib in crate_roots(root) {
        let text = std::fs::read_to_string(&lib).unwrap_or_default();
        if !text.contains("#![forbid(unsafe_code)]") {
            eprintln!("  {} lacks #![forbid(unsafe_code)]", lib.display());
            ok = false;
        }
    }
    // Belt and braces: no unsafe blocks/fns/impls in any source line
    // outside comments. The keyword is assembled at runtime so this
    // scanner does not flag its own source.
    let kw = concat!("un", "safe");
    let forms: Vec<String> = ["fn", "{", "impl", "trait", "extern"]
        .iter()
        .map(|f| format!("{kw} {f}"))
        .collect();
    for path in source_files(root) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if forms.iter().any(|f| code.contains(f.as_str())) {
                eprintln!("  {}:{}: {kw} code found", path.display(), i + 1);
                ok = false;
            }
        }
    }
    ok
}

/// Every crate root opts into the compiler's `missing_docs` lint.
pub(crate) fn audit_missing_docs(root: &Path) -> bool {
    let mut ok = true;
    for lib in crate_roots(root) {
        let text = std::fs::read_to_string(&lib).unwrap_or_default();
        if !text.contains("#![warn(missing_docs)]") {
            eprintln!("  {} lacks #![warn(missing_docs)]", lib.display());
            ok = false;
        }
    }
    ok
}

/// `(lint, level)` for every `lint = "level"` entry under
/// `[workspace.lints.rust]` and `[workspace.lints.clippy]` in the root
/// manifest, clippy lints with their `clippy::` prefix. `None` when the
/// manifest is unreadable or declares no policy.
pub(crate) fn policy_lints(root: &Path) -> Option<Vec<(String, String)>> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).ok()?;
    let mut prefix = None;
    let mut lints = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            prefix = match line {
                "[workspace.lints.rust]" => Some(""),
                "[workspace.lints.clippy]" => Some("clippy::"),
                _ => None,
            };
            continue;
        }
        let (Some(p), Some((name, value))) = (prefix, line.split_once('=')) else {
            continue;
        };
        if line.starts_with('#') {
            continue;
        }
        let level = value.trim().trim_matches('"');
        lints.push((format!("{p}{}", name.trim()), level.to_string()));
    }
    (!lints.is_empty()).then_some(lints)
}

/// Lints that are on without a `[workspace.lints]` entry: rustc's default
/// `unused_must_use`, and `missing_docs`, which every crate root switches
/// on (pinned by [`audit_missing_docs`]).
const ON_WITHOUT_POLICY: [&str; 2] = ["unused_must_use", "missing_docs"];

/// Every lint a non-test `#[expect]` names is switched on by the workspace
/// policy. An expectation switches its own lint on at its site, so clippy
/// cannot notice a policy lint that was removed or set to `allow`: every
/// expectation stays fulfilled while new violations elsewhere pass
/// unchecked. Removing a policy lint therefore fails here.
pub(crate) fn audit_lint_policy(root: &Path) -> bool {
    let Some(policy) = policy_lints(root) else {
        eprintln!("  Cargo.toml declares no [workspace.lints] policy");
        return false;
    };
    let mut expected: BTreeMap<String, usize> = BTreeMap::new();
    for path in source_files(root) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(&path);
        for lint in SourceFile::parse(rel.to_string_lossy(), text).expected_lints() {
            *expected.entry(lint).or_default() += 1;
        }
    }
    let mut ok = true;
    for (lint, sites) in &expected {
        let on = match policy.iter().find(|(name, _)| name == lint) {
            Some((_, level)) => matches!(level.as_str(), "warn" | "deny" | "forbid"),
            None => ON_WITHOUT_POLICY.contains(&lint.as_str()),
        };
        if !on {
            eprintln!(
                "  `{lint}` is expected at {sites} site(s) but [workspace.lints] does not \
                 switch it on: code outside those sites goes unchecked"
            );
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch workspace root holding `Cargo.toml` and one library file.
    fn scratch_root(name: &str, manifest: &str, lib: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("boxes-xtask-sweeps-{name}-{}", std::process::id()));
        let src = root.join("crates/x/src");
        std::fs::create_dir_all(&src).expect("scratch tree");
        std::fs::write(root.join("Cargo.toml"), manifest).expect("manifest");
        std::fs::write(src.join("lib.rs"), lib).expect("library source");
        root
    }

    const EXPECT_CAST: &str =
        "#[expect(clippy::as_conversions, reason = \"x\")]\nfn f() -> u64 { 1usize as u64 }\n";

    #[test]
    fn policy_lints_reads_both_tables_and_prefixes_clippy() {
        let manifest = "[workspace]\nmembers = [\"crates/*\"]\n\n\
                        [workspace.lints.rust]\n# comment = \"allow\"\nunreachable_pub = \"warn\"\n\n\
                        [workspace.lints.clippy]\nas_conversions = \"deny\"\n\n\
                        [profile.release]\ndebug = \"line-tables-only\"\n";
        let root = scratch_root("tables", manifest, "");
        let lints = policy_lints(&root);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(
            lints,
            Some(vec![
                ("unreachable_pub".to_string(), "warn".to_string()),
                ("clippy::as_conversions".to_string(), "deny".to_string()),
            ])
        );
    }

    #[test]
    fn lint_policy_audit_rejects_an_expectation_whose_lint_is_off() {
        let off = "[workspace.lints.clippy]\nas_conversions = \"allow\"\n";
        let root = scratch_root("off", off, EXPECT_CAST);
        let rejected = !audit_lint_policy(&root);
        std::fs::remove_dir_all(&root).ok();
        assert!(rejected, "an `allow`ed lint cannot back an #[expect]");

        let on = "[workspace.lints.clippy]\nas_conversions = \"warn\"\n";
        let root = scratch_root("on", on, EXPECT_CAST);
        let accepted = audit_lint_policy(&root);
        std::fs::remove_dir_all(&root).ok();
        assert!(accepted);
    }

    #[test]
    fn lint_policy_audit_accepts_lints_that_are_on_by_default() {
        let manifest = "[workspace.lints.clippy]\npanic = \"warn\"\n";
        let lib = "fn f() {\n  #[expect(unused_must_use, reason = \"x\")]\n  g();\n}\n";
        let root = scratch_root("default", manifest, lib);
        let accepted = audit_lint_policy(&root);
        std::fs::remove_dir_all(&root).ok();
        assert!(accepted, "rustc's default `unused_must_use` needs no entry");
    }

    #[test]
    fn lint_policy_holds_on_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        assert!(policy_lints(&root).is_some());
        assert!(audit_lint_policy(&root));
    }
}
