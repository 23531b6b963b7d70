//! The bad fixtures carry as many `#[expect(…)]` sites as the retired
//! rules reported on the same code, and the clean fixtures suppress
//! nothing. Clippy proves each expectation is met; this test proves none
//! was quietly dropped.

use std::collections::BTreeMap;
use std::path::Path;

/// Every `reason = "BXnnn bad fixture` under `dir`, counted by rule id.
fn expect_sites(dir: &Path, counts: &mut BTreeMap<String, usize>) {
    let entries = std::fs::read_dir(dir).expect("fixture directory");
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            expect_sites(&path, counts);
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("fixture source");
        for (i, needle) in text.match_indices("reason = \"") {
            let rest = &text[i + needle.len()..];
            let (Some(rule), Some(" bad fixture")) = (rest.get(..5), rest.get(5..17)) else {
                continue;
            };
            if rule.starts_with("BX") && rule[2..].bytes().all(|b| b.is_ascii_digit()) {
                *counts.entry(rule.to_string()).or_default() += 1;
            }
        }
    }
}

#[test]
fn bad_fixture_expectations_match_the_retired_rules_counts() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut got = BTreeMap::new();
    expect_sites(&src, &mut got);
    // The retired rules' pinned counts on the same code. BX011 shared its
    // fixture with BX018. BX018 counted five sites; the fifth, a
    // `static mut`, needs no lint: `forbid(unsafe_code)` already stops
    // every read and write of it.
    let want: BTreeMap<String, usize> = [
        ("BX002", 2),
        ("BX003", 4),
        ("BX004", 2),
        ("BX005", 2),
        ("BX006", 3),
        ("BX007", 3),
        ("BX008", 5),
        ("BX009", 3),
        ("BX013", 2),
        ("BX018", 4),
    ]
    .into_iter()
    .map(|(rule, n)| (rule.to_string(), n))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn clean_fixtures_suppress_nothing() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/clean");
    for entry in std::fs::read_dir(&dir).expect("clean fixtures") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("fixture source");
        for attr in ["#[expect", "#[allow", "#![expect", "#![allow"] {
            assert!(!text.contains(attr), "{} carries `{attr}`", path.display());
        }
    }
}
