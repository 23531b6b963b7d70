//! Concurrency regression test for the BX015 lock-order graph.
//!
//! The sharded pager introduced two new lock tiers under the coordinator:
//! per-shard page-table mutexes (`boxes-pager::Shard.state`) and per-frame
//! latches (`boxes-pager::Frame.latch`), plus the interleaving scheduler's
//! leaf mutex (`boxes-core::Scheduler.state`). This test re-analyzes the
//! *real* workspace and pins down the hierarchy:
//!
//! * the graph stays **acyclic** — any future code path that takes the
//!   coordinator while holding a shard (or a shard while holding a frame
//!   latch) turns up here as a cycle before it can deadlock in production;
//! * the coordinator→shard and shard→frame edges are **witnessed** — if a
//!   refactor stops the analyzer from seeing the hierarchy, the proof is
//!   gone even though the code may still be fine, and that silent loss of
//!   coverage should fail loudly too;
//! * a negative-control source with a two-lock cycle still makes BX015
//!   fire, so "no cycles above" means "none found", not "none findable".

use std::path::Path;

use boxes_lint::config::Config;
use boxes_lint::{lint_source, lint_workspace};

/// Workspace root (two levels up from the lint crate's manifest).
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels below the workspace root")
}

/// Extract `"key": [...]` array text from the (machine-written) JSON.
fn json_section<'a>(json: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("lock-order JSON has no {key} section"));
    let rest = &json[start + needle.len()..];
    let open = rest.find('[').expect("section opens an array");
    // Bracket-depth scan: witness lists nest arrays inside the edges array.
    let mut depth = 0usize;
    for (i, b) in rest[open..].char_indices() {
        match b {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &rest[open..=open + i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated {key} array in lock-order JSON");
}

#[test]
fn lock_order_graph_is_acyclic_with_the_sharded_pager_hierarchy() {
    let outcome = lint_workspace(workspace_root(), &Config::default()).expect("workspace parses");
    let json = outcome.lock_order_json;

    // Acyclic: the cycles array must be literally empty.
    let cycles = json_section(&json, "cycles");
    assert_eq!(
        cycles.replace(char::is_whitespace, ""),
        "[]",
        "lock-order graph grew a cycle: {json}"
    );

    // All three new locks are registered.
    let locks = json_section(&json, "locks");
    for lock in [
        "boxes-pager::Pager.inner",
        "boxes-pager::Shard.state",
        "boxes-pager::Frame.latch",
        "boxes-core::Scheduler.state",
    ] {
        assert!(locks.contains(lock), "lock inventory lost {lock}: {locks}");
    }

    // The two-tier hierarchy is witnessed: coordinator → shard and
    // shard → frame edges both appear with at least one witness site.
    let edges = json_section(&json, "edges");
    for (from, to) in [
        ("boxes-pager::Pager.inner", "boxes-pager::Shard.state"),
        ("boxes-pager::Pager.inner", "boxes-pager::Frame.latch"),
        ("boxes-pager::Shard.state", "boxes-pager::Frame.latch"),
    ] {
        let edge = format!("{{\"from\": \"{from}\", \"to\": \"{to}\"");
        assert!(
            edges.contains(&edge),
            "witnessed edge {from} -> {to} disappeared from the graph: {edges}"
        );
    }

    // The scheduler mutex is a leaf: nothing is acquired while holding it.
    assert!(
        !edges.contains("\"from\": \"boxes-core::Scheduler.state\""),
        "scheduler mutex must stay a leaf lock: {edges}"
    );
}

/// Negative control: an artificial A→B / B→A cycle must still trip BX015,
/// proving the acyclicity assertion above has teeth.
#[test]
fn bx015_still_fires_on_an_injected_lock_cycle() {
    let source = "\
pub struct S { a: Mutex<u8>, b: Mutex<u8> }
impl S {
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
    fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        drop(ga);
        drop(gb);
    }
}
";
    let fired: Vec<&str> = lint_source("crates/fixture/src/lib.rs", source, &Config::default())
        .into_iter()
        .map(|d| d.rule)
        .collect();
    assert!(
        fired.contains(&"BX015"),
        "BX015 must fire on a two-lock cycle (got {fired:?})"
    );
}
