//! `boxes-lint` — a dependency-free source-level static analyzer for the
//! BOXes workspace.
//!
//! The paper's contribution is measured in block I/Os, so correctness here
//! means *discipline*: every disk touch flows through the accounted
//! [`Pager`] entry points, I/O errors are never swallowed, and the
//! `Send + Sync` storage core keeps one lock order. Rustc and clippy enforce
//! the local invariants (panic freedom, casts, must-use values, `std::fs`,
//! clocks, cells) through the workspace lint policy in `Cargo.toml` and
//! `clippy.toml`. This crate encodes what they cannot see — call paths,
//! guard windows, lock order — as the BX rule catalog (see [`rules`]) over
//! a hand-rolled lexer ([`lexer`]) and a lightweight token-stream model
//! ([`model`]).
//!
//! Three analysis tiers share that substrate:
//!
//! * **Token-stream rules** (BX001, BX020) are pure per-file functions.
//! * **Call-graph rules** (BX010, BX012, BX014) run over an [`Analysis`]:
//!   an item-level parse ([`parser`]) of every file, a heuristic workspace
//!   call graph ([`callgraph`]) with explicit unknown edges so reachability
//!   stays sound-by-default, and per-function dataflow summaries
//!   ([`dataflow`]). No rustc internals, no external dependencies.
//! * **Lock-discipline rules** (BX015–BX017, BX019) run over the lock-set
//!   analysis ([`locks`]): per-function `Mutex`/`RwLock` acquisition
//!   summaries with guard-liveness windows, solved to fixpoint over the
//!   call graph. The resulting lock-order graph is exported to
//!   `target/lock-order.json` ([`Outcome::lock_order_json`]).
//!
//! Findings are [`report::Diagnostic`]s with `file:line:col` spans. A
//! checked-in baseline (`lint.toml`, parsed by [`config`]) suppresses
//! reviewed findings; every entry needs a justification, and an entry that
//! no longer matches anything fails the gate. `[limits] max_baselined` caps
//! everything suppressed: the matched `[[allow]]` findings plus every lint
//! named by a `#[expect(…)]` in non-test code, so the suppressions can only
//! shrink wherever they live.
//!
//! [`Pager`]: https://docs.rs/boxes-pager
//! [`Outcome::lock_order_json`]: report::Outcome::lock_order_json

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "the analyzer reads the workspace sources it checks"
)]

/// The workspace call graph with explicit unknown edges.
pub mod callgraph;
/// The `lint.toml` suppression baseline: parser and matching policy.
pub mod config;
/// Per-function dataflow: error propagation, borrow liveness, span order.
pub mod dataflow;
/// The hand-rolled, panic-free Rust lexer.
pub mod lexer;
/// Lock-set analysis: acquisitions, guard windows, the lock-order graph.
pub mod locks;
/// Token-stream source model (brackets, test regions, item scopes).
pub mod model;
/// Item-level parser: functions, impl blocks, shared-state sites.
pub mod parser;
/// Diagnostics plus the human and JSON renderers.
pub mod report;
/// The BX rule catalog.
pub mod rules;

use std::io;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use config::Config;
use dataflow::FnSummary;
use locks::LockAnalysis;
use model::SourceFile;
use parser::ParsedFile;
use report::{Diagnostic, Outcome};

/// The whole-workspace analysis the call-graph and lock rules run over.
pub struct Analysis {
    /// Every scanned file, token-stream form.
    pub files: Vec<SourceFile>,
    /// Item-level parse of each file, parallel to `files`.
    pub parsed: Vec<ParsedFile>,
    /// The workspace call graph over all parsed functions.
    pub graph: CallGraph,
    /// Dataflow summaries, parallel to `graph.fns`.
    pub summaries: Vec<FnSummary>,
}

impl Analysis {
    /// Parse, link, and summarize a set of files.
    pub fn build(files: Vec<SourceFile>) -> Analysis {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .enumerate()
            .map(|(i, f)| parser::parse_file(f, i))
            .collect();
        let graph = CallGraph::build(&files, &parsed);
        let summaries = dataflow::summarize(&graph, &files);
        Analysis {
            files,
            parsed,
            graph,
            summaries,
        }
    }
}

/// Lint a single source text under its workspace-relative `path`, running
/// both rule tiers (the call graph sees just this one file).
///
/// Applies the per-rule `allow_paths` policy from `config` but not the
/// `[[allow]]` baseline — feed the result to [`apply_baseline`] for that.
pub fn lint_source(path: &str, text: &str, config: &Config) -> Vec<Diagnostic> {
    let analysis = Analysis::build(vec![SourceFile::parse(path, text)]);
    let mut diags = Vec::new();
    rules::run_all(&analysis.files[0], &mut diags);
    rules::run_graph(&analysis, &LockAnalysis::build(&analysis), &mut diags);
    diags.retain(|d| !config.rule_allows_path(d.rule, &d.path));
    sort_diags(&mut diags);
    diags
}

/// Partition findings into suppressed/unsuppressed against the `[[allow]]`
/// baseline, surface entries that matched nothing (stale suppressions), and
/// enforce the `[limits] max_baselined` budget over the suppressed findings
/// plus the `expectations` (lints named by non-test `#[expect(…)]`
/// attributes, see [`SourceFile::expected_lints`]).
pub fn apply_baseline(diags: Vec<Diagnostic>, config: &Config, expectations: usize) -> Outcome {
    let mut matched = vec![false; config.allows.len()];
    let mut outcome = Outcome {
        expectations,
        ..Outcome::default()
    };
    for d in diags {
        let hit = config.allows.iter().position(|a| {
            a.rule == d.rule
                && a.path == d.path
                && a.contains.as_deref().is_none_or(|c| d.snippet.contains(c))
        });
        match hit {
            Some(i) => {
                if let Some(slot) = matched.get_mut(i) {
                    *slot = true;
                }
                outcome.suppressed.push(d);
            }
            None => outcome.unsuppressed.push(d),
        }
    }
    for (i, a) in config.allows.iter().enumerate() {
        if !matched.get(i).copied().unwrap_or(true) {
            outcome.stale_allows.push(format!(
                "lint.toml:{}: [[allow]] {} in {} matched no findings — remove the \
                 stale entry",
                a.line_no, a.rule, a.path
            ));
        }
    }
    if let Some(max) = config.max_baselined {
        let total = outcome.suppressed.len() + outcome.expectations;
        if total > max {
            outcome.budget_violations.push(format!(
                "baseline budget exceeded: {} suppressed findings + {} #[expect] lints = \
                 {total} > max_baselined = {max} — fix findings instead of growing the \
                 baseline",
                outcome.suppressed.len(),
                outcome.expectations,
            ));
        }
    }
    outcome
}

/// Lint the whole workspace rooted at `root`: every `.rs` file under
/// `crates/*/src` and `xtask/src` (integration tests, fixtures, and
/// `third_party/` are out of scope), with every rule tier, the baseline
/// and the suppression budget applied. The outcome carries the lock-order
/// graph the lock rules checked.
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<Outcome> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let xtask_src = root.join("xtask").join("src");
    if xtask_src.is_dir() {
        collect_rs(&xtask_src, &mut files)?;
    }
    files.sort();

    let mut sources: Vec<SourceFile> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)?;
        sources.push(SourceFile::parse(rel_path(root, path), text));
    }
    let expectations = sources.iter().map(|f| f.expected_lints().len()).sum();
    let analysis = Analysis::build(sources);
    let la = LockAnalysis::build(&analysis);
    let mut diags = Vec::new();
    for f in &analysis.files {
        rules::run_all(f, &mut diags);
    }
    rules::run_graph(&analysis, &la, &mut diags);
    diags.retain(|d| !config.rule_allows_path(d.rule, &d.path));
    sort_diags(&mut diags);
    let mut outcome = apply_baseline(diags, config, expectations);
    outcome.files_scanned = analysis.files.len();
    outcome.lock_order_json = la.to_json();
    Ok(outcome)
}

/// Load and parse `lint.toml` from the workspace root. A missing file is an
/// empty config (no policy, no suppressions).
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read lint.toml: {e}"))?;
    Config::parse(&text).map_err(|e| e.to_string())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Diagnostic;

    fn diag(rule: &'static str, path: &str, snippet: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line: 1,
            col: 1,
            message: String::new(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn baseline_suppresses_and_detects_stale() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"BX001\"\npath = \"crates/a/src/lib.rs\"\n\
             contains = \"victim\"\njustification = \"negative control\"\n\
             [[allow]]\nrule = \"BX019\"\npath = \"crates/b/src/lib.rs\"\n\
             justification = \"never matches\"\n",
        )
        .expect("valid config");
        let diags = vec![
            diag("BX001", "crates/a/src/lib.rs", "pager.write(victim, &b)"),
            diag("BX001", "crates/a/src/lib.rs", "pager.read(id)"),
        ];
        let outcome = apply_baseline(diags, &cfg, 0);
        assert_eq!(outcome.suppressed.len(), 1);
        assert_eq!(outcome.unsuppressed.len(), 1);
        assert_eq!(outcome.stale_allows.len(), 1);
        assert!(outcome.stale_allows[0].contains("BX019"));
        assert!(!outcome.is_clean());
    }

    #[test]
    fn allow_paths_policy_filters_findings() {
        let cfg = Config::parse("[rules.BX001]\nallow_paths = [\"crates/pager/src\"]\n")
            .expect("valid config");
        let src = "fn f(pager: &Pager) { pager.read(id); }";
        assert!(lint_source("crates/pager/src/lib.rs", src, &cfg).is_empty());
        assert_eq!(lint_source("crates/core/src/lib.rs", src, &cfg).len(), 1);
    }

    #[test]
    fn baseline_budget_counts_findings_and_expectations() {
        let cfg = Config::parse(
            "[limits]\nmax_baselined = 2\n\
             [[allow]]\nrule = \"BX001\"\npath = \"crates/a/src/lib.rs\"\n\
             justification = \"temporary\"\n",
        )
        .expect("valid config");
        let within = apply_baseline(vec![diag("BX001", "crates/a/src/lib.rs", "x")], &cfg, 1);
        assert!(within.is_clean(), "{:?}", within.budget_violations);
        let over = apply_baseline(vec![diag("BX001", "crates/a/src/lib.rs", "x")], &cfg, 2);
        assert_eq!(over.suppressed.len(), 1);
        assert_eq!(over.budget_violations.len(), 1);
        assert!(!over.is_clean());
        assert!(over.to_json().contains("baseline budget exceeded"));
    }
}
