//! Pinned workspace inventory: the real workspace must scan clean, and the
//! `unsafe` surface is frozen at exactly the audited counts. If new
//! `unsafe` lands without a `SAFETY:` justification — or anywhere outside
//! the two audited files — this test fails and the diff below must be
//! reviewed deliberately, not waved through.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_scans_clean() {
    let report = lint::scan_workspace(workspace_root()).expect("workspace scan");
    assert!(report.clean(), "unsuppressed lint findings in the workspace:\n{:#?}", report.findings);
    assert!(report.files_scanned > 50, "walker lost the workspace: {}", report.files_scanned);
}

#[test]
fn unsafe_inventory_is_pinned() {
    let report = lint::scan_workspace(workspace_root()).expect("workspace scan");

    // The audited unsafe surface: SIMD kernels behind the OnceLock dispatch
    // (with `Kernel::run`'s call into the AVX2 trampoline, which compiles
    // the GP factorization for AVX2 without a `#[target_feature]` outside
    // the dispatch module, and `Kernel::exp`'s three: its dispatch arm,
    // the self-check's call and the `avx2,fma` body) and the three affinity
    // syscall wrappers. Every site documented.
    let expect = [("crates/bench/src/affinity.rs", 3usize), ("crates/vecdata/src/kernel.rs", 18)];
    for (file, sites) in expect {
        let inv = report
            .unsafe_inventory
            .get(file)
            .unwrap_or_else(|| panic!("missing inventory for {file}"));
        assert_eq!(inv.sites, sites, "{file}: unsafe site count drifted");
        assert_eq!(inv.documented, sites, "{file}: undocumented unsafe site");
    }
    assert_eq!(
        report.unsafe_inventory.len(),
        expect.len(),
        "unsafe appeared outside the audited files: {:?}",
        report.unsafe_inventory.keys().collect::<Vec<_>>()
    );
    assert_eq!(report.unsafe_sites(), 21);
    assert_eq!(report.unsafe_documented(), 21);
}

#[test]
fn suppression_set_is_pinned() {
    let report = lint::scan_workspace(workspace_root()).expect("workspace scan");
    let got: Vec<(&str, &str)> =
        report.suppressions.iter().map(|s| (s.rule.key(), s.file.as_str())).collect();
    let want = [
        ("r3_wall_clock", "crates/workload/src/tuner.rs"),
        ("r3_wall_clock", "crates/workload/src/tuner.rs"),
    ];
    assert_eq!(got, want, "lint:allow suppression set drifted — justify any new tag here");
}

#[test]
fn json_report_round_trips_key_fields() {
    let report = lint::scan_workspace(workspace_root()).expect("workspace scan");
    let json = report.to_json();
    for needle in [
        "\"schema\": \"vdtuner-lint-v1\"",
        "\"clean\": true",
        "\"total_sites\": 21",
        "\"total_documented\": 21",
        "\"crates/vecdata/src/kernel.rs\": {\"sites\": 18, \"documented\": 18}",
    ] {
        assert!(json.contains(needle), "lint.json missing {needle}:\n{json}");
    }
    // The `rules` object is keyed by exactly the four rules, in order.
    let rules = &json[json.find("\"rules\": {").unwrap()..json.find("\"suppressions\"").unwrap()];
    let keys: Vec<&str> =
        rules.lines().filter_map(|l| l.strip_prefix("    \"")?.strip_suffix("\": {")).collect();
    assert_eq!(
        keys,
        ["r1_unsafe_safety", "r2_hash_collection", "r3_wall_clock", "r4_par_float_fold"]
    );
}
