//! The source-lint step: drive `boxes-lint` over the workspace, print
//! human diagnostics, and drop the JSON artifacts in
//! `target/lint-report.json` and `target/lock-order.json`.

use std::path::Path;
use std::time::Instant;

use boxes_lint::report::Outcome;

/// Run the BX rule catalog against the `lint.toml` baseline and count the
/// `#[expect]` suppressions against its budget. Prints every unsuppressed
/// finding, stale suppression, and budget violation; returns whether the
/// gate is clean. Also writes the lint report (with the pass runtime) and
/// the BX015 lock-order graph.
pub(crate) fn run(root: &Path) -> bool {
    let start = Instant::now();
    let Some(mut outcome) = lint_workspace(root) else {
        return false;
    };
    outcome.lint_pass_ms = start.elapsed().as_millis();
    write_artifact(root, "lint-report.json", &outcome.to_json());
    write_artifact(root, "lock-order.json", &outcome.lock_order_json);
    for d in &outcome.unsuppressed {
        eprintln!("  {}", d.human());
    }
    for stale in &outcome.stale_allows {
        eprintln!("  {stale}");
    }
    for violation in &outcome.budget_violations {
        eprintln!("  {violation}");
    }
    println!(
        "  lint: {} file(s), {} finding(s) baselined, {} #[expect] lint(s), \
         {} unsuppressed, {} stale suppression(s), {} ms",
        outcome.files_scanned,
        outcome.suppressed.len(),
        outcome.expectations,
        outcome.unsuppressed.len(),
        outcome.stale_allows.len(),
        outcome.lint_pass_ms,
    );
    outcome.is_clean()
}

/// `--explain BXnnn`: print a rule's rationale and fix recipe.
pub(crate) fn explain(id: &str) -> bool {
    match boxes_lint::rules::rule_doc(id) {
        Some(doc) => {
            println!("{}: {}", doc.id, doc.title);
            println!("\nwhy:\n  {}", doc.rationale);
            println!("\nfix:\n  {}", doc.fix);
            true
        }
        None => {
            eprintln!(
                "unknown rule `{id}` — known rules: {}",
                boxes_lint::rules::RULE_IDS.join(", ")
            );
            false
        }
    }
}

/// `--baseline`: print ready-to-paste `[[allow]]` entries for the current
/// unsuppressed findings. The justification is left as a TODO on purpose —
/// the gate rejects entries without one, so each must be filled in by hand.
pub(crate) fn emit_baseline(root: &Path) -> bool {
    let Some(outcome) = lint_workspace(root) else {
        return false;
    };
    if outcome.unsuppressed.is_empty() {
        println!("# no unsuppressed findings — nothing to baseline");
        return true;
    }
    for d in &outcome.unsuppressed {
        println!("[[allow]]");
        println!("rule = \"{}\"", d.rule);
        println!("path = \"{}\"", d.path);
        if !d.snippet.is_empty() {
            println!(
                "contains = \"{}\"",
                d.snippet.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        println!("justification = \"TODO: why is this finding acceptable?\"");
        println!();
    }
    true
}

fn lint_workspace(root: &Path) -> Option<Outcome> {
    let config = match boxes_lint::load_config(root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("  lint: {e}");
            return None;
        }
    };
    match boxes_lint::lint_workspace(root, &config) {
        Ok(o) => Some(o),
        Err(e) => {
            eprintln!("  lint: workspace scan failed: {e}");
            None
        }
    }
}

fn write_artifact(root: &Path, name: &str, contents: &str) {
    let dir = root.join("target");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("  lint: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("  lint: cannot write {}: {e}", path.display());
    }
}
