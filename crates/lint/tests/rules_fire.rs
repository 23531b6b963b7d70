//! Fixture-driven proof that every rule in the BX catalog fires on a
//! known-bad snippet and stays quiet on its known-clean counterpart, plus
//! the stale-suppression and budget negative controls. The rule list comes
//! from `rules::RULE_IDS`, so the catalog and the fixtures cannot drift.

use boxes_lint::config::Config;
use boxes_lint::rules::RULE_IDS;
use boxes_lint::{apply_baseline, lint_source};

/// Read a fixture's source text.
fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path} unreadable: {e}"))
}

/// Load a fixture and lint it as if it lived in consumer library code
/// (a path no `allow_paths` policy would cover).
fn lint_fixture(name: &str) -> Vec<&'static str> {
    lint_source(
        "crates/fixture/src/lib.rs",
        &fixture(name),
        &Config::default(),
    )
    .into_iter()
    .map(|d| d.rule)
    .collect()
}

#[test]
fn every_rule_fires_on_its_bad_fixture() {
    for rule in RULE_IDS {
        let fired = lint_fixture(&format!("{}_bad", rule.to_lowercase()));
        assert!(
            fired.contains(&rule),
            "{rule} did not fire on its bad fixture (got {fired:?})"
        );
    }
}

#[test]
fn no_rule_fires_on_its_clean_fixture() {
    for rule in RULE_IDS {
        let fired = lint_fixture(&format!("{}_clean", rule.to_lowercase()));
        assert!(
            !fired.contains(&rule),
            "{rule} fired on its clean fixture ({fired:?})"
        );
    }
}

#[test]
fn bad_fixture_counts_are_pinned() {
    // A rule regression that doubles or silences findings should trip
    // something more precise than "at least one".
    let cases = [
        ("BX001", 3),
        ("BX010", 2),
        ("BX012", 5),
        ("BX014", 2),
        ("BX015", 1),
        ("BX016", 2),
        ("BX017", 2),
        ("BX019", 2),
        ("BX020", 3),
    ];
    assert_eq!(
        cases.map(|(rule, _)| rule),
        RULE_IDS,
        "every catalog rule has a pinned count"
    );
    for (rule, want) in cases {
        let fixture = format!("{}_bad", rule.to_lowercase());
        let fired = lint_fixture(&fixture);
        let got = fired.iter().filter(|r| **r == rule).count();
        assert_eq!(
            got, want,
            "{fixture}: expected {want} {rule} findings, got {fired:?}"
        );
    }
}

#[test]
fn bx012_sees_a_named_pager_call_matched_and_ignored() {
    let diags = lint_source(
        "crates/fixture/src/lib.rs",
        &fixture("bx012_bad"),
        &Config::default(),
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "BX012" && d.message.contains("Pager::try_write")),
        "an `Err(_) => {{}}` arm over `try_write` must fire: {diags:?}"
    );
}

#[test]
fn bx010_names_the_transitive_chain() {
    // The two-hop `entry -> helper -> FileStore::read` leak must be caught
    // and the diagnostic must spell out the call chain to the sink.
    let text = fixture("bx010_bad");
    let diags = lint_source("crates/fixture/src/lib.rs", &text, &Config::default());
    let entry = diags
        .iter()
        .find(|d| d.rule == "BX010" && d.message.contains("::entry`"))
        .unwrap_or_else(|| panic!("no BX010 finding for the 2-hop entry fn: {diags:?}"));
    assert!(
        entry.message.contains("helper") && entry.message.contains("FileStore::read"),
        "chain diagnostic should walk through the helper to the sink: {}",
        entry.message
    );
}

#[test]
fn stale_graph_suppression_fails_the_gate() {
    // A BX010 baseline entry that matches nothing must fail the gate just
    // like a stale stream-tier entry: graph findings are stale-checked too.
    let toml = r#"
[[allow]]
rule = "BX010"
path = "crates/fixture/src/lib.rs"
contains = "reaches_nothing_anymore"
justification = "kept after the bypass was routed through the pager"
"#;
    let config = Config::parse(toml).expect("baseline parses");
    let text = fixture("bx010_clean");
    let diags = lint_source("crates/fixture/src/lib.rs", &text, &config);
    let outcome = apply_baseline(diags, &config, 0);
    assert_eq!(outcome.stale_allows.len(), 1, "{:?}", outcome.stale_allows);
    assert!(
        !outcome.is_clean(),
        "a stale BX010 [[allow]] must fail the gate"
    );
    assert!(
        outcome.stale_allows[0].contains("BX010"),
        "stale message names the rule: {}",
        outcome.stale_allows[0]
    );
}

#[test]
fn bx015_names_the_cycle_and_exports_witnesses() {
    // The 3-lock cycle fixture must produce one finding that spells out the
    // full cycle in lock-identity terms.
    let text = fixture("bx015_bad");
    let diags = lint_source("crates/fixture/src/lib.rs", &text, &Config::default());
    let cycle = diags
        .iter()
        .find(|d| d.rule == "BX015")
        .unwrap_or_else(|| panic!("no BX015 finding: {diags:?}"));
    for lock in ["Triple.a", "Triple.b", "Triple.c"] {
        assert!(
            cycle.message.contains(lock),
            "cycle message should name {lock}: {}",
            cycle.message
        );
    }
    assert!(
        cycle.message.contains("lock-order.json"),
        "finding should point at the witness artifact: {}",
        cycle.message
    );
}

#[test]
fn baseline_budget_violation_fails_the_gate() {
    let toml = r#"
[limits]
max_baselined = 3

[[allow]]
rule = "BX001"
path = "crates/fixture/src/lib.rs"
justification = "fixture exercises deliberate raw pager traffic"
"#;
    let config = Config::parse(toml).expect("baseline parses");
    let diags = lint_source("crates/fixture/src/lib.rs", &fixture("bx001_bad"), &config);
    let within = apply_baseline(diags.clone(), &config, 0);
    assert_eq!(within.suppressed.len(), 3);
    assert!(within.is_clean(), "{:?}", within.budget_violations);
    // One `#[expect]` lint elsewhere tips the same baseline over the cap.
    let over = apply_baseline(diags, &config, 1);
    assert_eq!(over.budget_violations.len(), 1);
    assert!(
        !over.is_clean(),
        "exceeding max_baselined must fail the gate"
    );
}

#[test]
fn stale_suppression_fails_the_gate() {
    let toml = r#"
[[allow]]
rule = "BX019"
path = "crates/fixture/src/lib.rs"
contains = "this snippet appears nowhere"
justification = "entry kept after the finding was fixed"
"#;
    let config = Config::parse(toml).expect("baseline parses");
    let diags = lint_source(
        "crates/fixture/src/lib.rs",
        &fixture("bx019_clean"),
        &config,
    );
    let outcome = apply_baseline(diags, &config, 0);
    assert_eq!(outcome.stale_allows.len(), 1, "{:?}", outcome.stale_allows);
    assert!(!outcome.is_clean(), "a stale [[allow]] must fail the gate");
    assert!(
        outcome.stale_allows[0].contains("BX019"),
        "stale message names the rule: {}",
        outcome.stale_allows[0]
    );
}

#[test]
fn live_suppression_keeps_the_gate_green() {
    let toml = r#"
[[allow]]
rule = "BX019"
path = "crates/fixture/src/lib.rs"
justification = "fixture exercises measured relaxed orderings"

[[allow]]
rule = "BX001"
path = "crates/fixture/src/lib.rs"
justification = "fixture exercises deliberate raw pager traffic"
"#;
    let config = Config::parse(toml).expect("baseline parses");
    let diags = lint_source("crates/fixture/src/lib.rs", &fixture("bx019_bad"), &config);
    let outcome = apply_baseline(diags, &config, 0);
    assert!(
        outcome.unsuppressed.is_empty(),
        "{:?}",
        outcome.unsuppressed
    );
    assert_eq!(
        outcome.stale_allows.len(),
        1,
        "the BX001 entry matches nothing in the BX019 fixture"
    );
    assert_eq!(outcome.suppressed.len(), 2);
}
