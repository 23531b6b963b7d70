//! The workspace lint policy still switches on, for every retired BX rule,
//! the rustc and clippy lints that replaced it. The fixtures in `src/`
//! prove that each lint reports its rule's shapes; they cannot notice a
//! lint that was dropped from the policy, because an `#[expect]` switches
//! its own lint on at its site. These tests read the policy files and fail
//! when a replacement goes missing or its scope widens.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The workspace root, three levels above this crate's manifest.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../..")
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()))
}

/// `lint = "level"` entries of one manifest table, e.g.
/// `[workspace.lints.clippy]`.
fn lint_levels(manifest: &str, table: &str) -> BTreeMap<String, String> {
    let mut levels = BTreeMap::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == table;
            continue;
        }
        if !inside || line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.split_once('=') {
            levels.insert(
                name.trim().to_string(),
                value.trim().trim_matches('"').to_string(),
            );
        }
    }
    levels
}

/// Whether `lint` is switched on in `table` of `manifest`.
fn on(manifest: &str, table: &str, lint: &str) -> bool {
    lint_levels(manifest, table)
        .get(lint)
        .is_some_and(|level| matches!(level.as_str(), "warn" | "deny" | "forbid"))
}

/// Assert that every lint in `lints` is on in the workspace clippy table.
fn assert_clippy_policy(lints: &[&str]) {
    let manifest = read("Cargo.toml");
    for lint in lints {
        assert!(
            on(&manifest, "[workspace.lints.clippy]", lint),
            "[workspace.lints.clippy] must switch on `{lint}`"
        );
    }
}

/// The `path = "…"` entries of one `disallowed-*` list in a clippy.toml.
fn disallowed(clippy_toml: &str, key: &str) -> Vec<String> {
    let mut paths = Vec::new();
    let mut inside = false;
    for line in clippy_toml.lines().map(str::trim) {
        if line.starts_with(key) && line.contains('=') {
            inside = true;
            continue;
        }
        if !inside {
            continue;
        }
        if line == "]" {
            break;
        }
        if let Some(rest) = line.split_once("path = \"").map(|(_, rest)| rest) {
            if let Some((path, _)) = rest.split_once('"') {
                paths.push(path.to_string());
            }
        }
    }
    paths
}

/// Whether a `#[must_use …]` attribute sits among the attributes just
/// above `decl` in `source`.
fn has_must_use(source: &str, decl: &str) -> bool {
    let lines: Vec<&str> = source.lines().collect();
    let Some(at) = lines.iter().position(|l| l.trim_start().starts_with(decl)) else {
        panic!("`{decl}` not found");
    };
    lines[..at]
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(|l| l.starts_with("#[") || l.starts_with("///"))
        .any(|l| l.starts_with("#[must_use"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Workspace crate directories under `crates/`.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn bx002_std_fs_is_a_disallowed_method() {
    assert_clippy_policy(&["disallowed_methods"]);
    let methods = disallowed(&read("clippy.toml"), "disallowed-methods");
    for path in [
        "std::fs::read",
        "std::fs::read_to_string",
        "std::fs::read_dir",
        "std::fs::write",
        "std::fs::rename",
        "std::fs::remove_file",
        "std::fs::create_dir_all",
        "std::fs::metadata",
        "std::fs::File::open",
        "std::fs::File::create",
        "std::fs::OpenOptions::new",
    ] {
        assert!(
            methods.iter().any(|m| m == path),
            "clippy.toml disallowed-methods must list `{path}`"
        );
    }
}

#[test]
fn bx002_fs_opt_outs_are_pinned_to_the_store_modules() {
    // BX002's allow_paths named these files; a new disk surface must be
    // added here on purpose, not by a stray module-level allow.
    let mut files = Vec::new();
    for dir in crate_dirs() {
        rust_files(&dir.join("src"), &mut files);
    }
    let mut opted_out: Vec<String> = files
        .iter()
        .filter(|path| {
            std::fs::read_to_string(path)
                .expect("source file")
                .contains("clippy::disallowed_methods")
        })
        .map(|path| {
            path.strip_prefix(root().join("crates"))
                .expect("under crates/")
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    opted_out.sort();
    assert_eq!(
        opted_out,
        ["lint/src/lib.rs", "pager/src/file.rs", "wal/src/store.rs"]
    );
}

#[test]
fn bx003_panicking_calls_are_policy_lints() {
    assert_clippy_policy(&["unwrap_used", "expect_used", "panic", "unreachable"]);
}

#[test]
fn bx004_every_as_cast_is_a_policy_lint() {
    // The `cast_*` family misses widening `len() as u64`; only
    // `as_conversions` sees every `as`.
    assert_clippy_policy(&["as_conversions"]);
}

#[test]
fn bx005_audit_reports_and_io_stats_are_must_use_types() {
    assert!(has_must_use(
        &read("crates/audit/src/lib.rs"),
        "pub struct AuditReport"
    ));
    assert!(has_must_use(
        &read("crates/pager/src/stats.rs"),
        "pub struct IoStats"
    ));
    assert_clippy_policy(&["let_underscore_must_use"]);
    // `unused_must_use` is on by rustc's default; the policy must not
    // switch it off.
    let rust = lint_levels(&read("Cargo.toml"), "[workspace.lints.rust]");
    assert!(
        rust.get("unused_must_use")
            .is_none_or(|level| level != "allow"),
        "unused_must_use must stay on"
    );
}

#[test]
fn bx006_every_pub_item_is_reachable_and_documented() {
    assert!(
        on(
            &read("Cargo.toml"),
            "[workspace.lints.rust]",
            "unreachable_pub"
        ),
        "[workspace.lints.rust] must switch on `unreachable_pub`"
    );
    for dir in crate_dirs() {
        let lib = dir.join("src/lib.rs");
        if !lib.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&lib).expect("crate root");
        assert!(
            text.contains("#![warn(missing_docs)]"),
            "{} must switch on missing_docs",
            lib.display()
        );
    }
}

#[test]
fn bx007_wall_clocks_are_disallowed_types() {
    assert_clippy_policy(&["disallowed_types"]);
    let types = disallowed(&read("clippy.toml"), "disallowed-types");
    for path in ["std::time::Instant", "std::time::SystemTime"] {
        assert!(
            types.iter().any(|t| t == path),
            "clippy.toml disallowed-types must list `{path}`"
        );
    }
}

#[test]
fn bx008_io_results_cannot_be_silenced() {
    // `Result` is a `#[must_use]` type: `let _ =` and `.ok()` are the two
    // ways to drop one without a warning from rustc.
    assert_clippy_policy(&["let_underscore_must_use", "unused_result_ok"]);
}

#[test]
fn bx009_spans_cannot_be_dropped_or_leaked() {
    assert!(has_must_use(
        &read("crates/trace/src/lib.rs"),
        "pub struct OpSpan"
    ));
    assert_clippy_policy(&["let_underscore_must_use", "mem_forget"]);
}

#[test]
fn bx018_shared_state_is_disallowed() {
    assert_clippy_policy(&["disallowed_types", "disallowed_macros"]);
    let clippy = read("clippy.toml");
    let types = disallowed(&clippy, "disallowed-types");
    for path in ["std::cell::RefCell", "std::cell::Cell", "std::rc::Rc"] {
        assert!(
            types.iter().any(|t| t == path),
            "clippy.toml disallowed-types must list `{path}`"
        );
    }
    assert_eq!(
        disallowed(&clippy, "disallowed-macros"),
        ["std::thread_local"]
    );
}

#[test]
fn library_crates_inherit_the_workspace_policy() {
    // bench narrows the policy in its own manifest (checked below); every
    // other crate takes it whole.
    let mut manifests: Vec<PathBuf> = crate_dirs()
        .into_iter()
        .filter(|dir| !dir.ends_with("bench"))
        .map(|dir| dir.join("Cargo.toml"))
        .collect();
    manifests.push(root().join("crates/lint/coverage/Cargo.toml"));
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("manifest");
        assert_eq!(
            lint_levels(&text, "[lints]")
                .get("workspace")
                .map(String::as_str),
            Some("true"),
            "{} must set `[lints] workspace = true`",
            manifest.display()
        );
    }
}

#[test]
fn bench_may_read_clocks_and_files_but_not_use_cells() {
    let manifest = read("crates/bench/Cargo.toml");
    assert!(on(&manifest, "[lints.rust]", "unreachable_pub"));
    for lint in [
        "let_underscore_must_use",
        "mem_forget",
        "disallowed_types",
        "disallowed_macros",
    ] {
        assert!(
            on(&manifest, "[lints.clippy]", lint),
            "bench must keep `{lint}`"
        );
    }
    let clippy = read("crates/bench/clippy.toml");
    assert!(disallowed(&clippy, "disallowed-methods").is_empty());
    assert_eq!(
        disallowed(&clippy, "disallowed-types"),
        ["std::cell::RefCell", "std::cell::Cell", "std::rc::Rc"]
    );
    assert_eq!(
        disallowed(&clippy, "disallowed-macros"),
        ["std::thread_local"]
    );
}

#[test]
fn xtask_keeps_the_must_use_and_span_rules() {
    let manifest = read("xtask/Cargo.toml");
    assert!(on(&manifest, "[lints.rust]", "unreachable_pub"));
    assert!(on(&manifest, "[lints.clippy]", "let_underscore_must_use"));
    assert!(on(&manifest, "[lints.clippy]", "mem_forget"));
}

#[test]
fn third_party_is_outside_the_policy() {
    // The vendored stand-ins replace the root clippy.toml with an empty
    // one and never opt into `[workspace.lints]`.
    let clippy = read("third_party/clippy.toml");
    assert!(
        !clippy
            .lines()
            .any(|l| l.trim_start().starts_with("disallowed-")),
        "third_party/clippy.toml must not carry a disallowed-* list"
    );
    for entry in std::fs::read_dir(root().join("third_party")).expect("third_party") {
        let manifest = entry.expect("directory entry").path().join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).expect("manifest");
            assert!(
                lint_levels(&text, "[lints]").is_empty(),
                "{} must not opt into the workspace policy",
                manifest.display()
            );
        }
    }
}
