//! Self-tests for `sordf_lint`: every rule fires on its known-bad fixture
//! at the expected line, the clean fixture produces nothing, and — the CI
//! gate in test form — the real tree lints clean.
//!
//! Fixtures live in `tests/fixtures/` and are deliberately excluded from
//! `--workspace` scans by [`sordf_lint::classify`]; the tests force the
//! full scope instead so each file is checked under every rule.

use sordf_lint::{classify, lint_sources, lint_workspace, workspace_root, Diagnostic, Scope};

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(dir.join(name)).expect("read fixture");
    lint_sources(
        &[(format!("crates/lint/tests/fixtures/{name}"), src)],
        Some(Scope::all()),
    )
}

/// Lines at which `rule` fired, in file order.
fn lines(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    let mut v: Vec<u32> = diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn l1_flags_live_dict_next_to_pinned_query_and_pin_across_write() {
    let diags = lint_fixture("bad_l1.rs");
    assert_eq!(lines(&diags, "L1"), vec![9, 15], "{diags:#?}");
    assert_eq!(diags.len(), 2, "only L1 should fire: {diags:#?}");
}

#[test]
fn l2_flags_undeclared_acquisition_and_rank_inversion() {
    let diags = lint_fixture("bad_l2.rs");
    assert_eq!(lines(&diags, "L2"), vec![9, 14], "{diags:#?}");
    assert_eq!(diags.len(), 2, "only L2 should fire: {diags:#?}");
    // The two failure modes are distinct: one missing annotation, one
    // hierarchy inversion reported at the offending caller's signature.
    let msgs: Vec<&str> = diags.iter().map(|d| d.msg.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("no `// lock-order:")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("lower-ranked")), "{msgs:?}");
}

#[test]
fn l3_flags_unwrap_and_panic_outside_tests_only() {
    let diags = lint_fixture("bad_l3.rs");
    assert_eq!(lines(&diags, "L3"), vec![4, 6], "{diags:#?}");
    assert_eq!(diags.len(), 2, "test regions must be exempt: {diags:#?}");
}

#[test]
fn l4_flags_std_sync_primitives_in_both_use_forms() {
    let diags = lint_fixture("bad_l4.rs");
    assert_eq!(lines(&diags, "L4"), vec![4, 5], "{diags:#?}");
    assert_eq!(diags.len(), 2, "`Arc` is not banned: {diags:#?}");
}

#[test]
fn l5_flags_guard_struct_without_must_use() {
    let diags = lint_fixture("bad_l5.rs");
    assert_eq!(lines(&diags, "L5"), vec![4], "{diags:#?}");
    assert_eq!(diags.len(), 1, "annotated pin type is clean: {diags:#?}");
}

#[test]
fn l6_flags_unjustified_ordering_only() {
    let diags = lint_fixture("bad_l6.rs");
    assert_eq!(lines(&diags, "L6"), vec![7], "{diags:#?}");
    assert_eq!(diags.len(), 1, "justified load is clean: {diags:#?}");
}

#[test]
fn l7_flags_discarded_write_path_io_results() {
    let diags = lint_fixture("bad_l7.rs");
    assert_eq!(lines(&diags, "L7"), vec![8, 12], "{diags:#?}");
    assert_eq!(
        diags.len(),
        2,
        "propagating / allowed / test code is clean: {diags:#?}"
    );
}

#[test]
fn l8_flags_raw_page_layout_access() {
    let diags = lint_fixture("bad_l8.rs");
    assert_eq!(lines(&diags, "L8"), vec![4, 8], "{diags:#?}");
    assert_eq!(
        diags.len(),
        2,
        "the accessor-based read is clean: {diags:#?}"
    );
}

#[test]
fn l9_flags_blocking_socket_io_under_state_lock() {
    let diags = lint_fixture("bad_l9.rs");
    assert_eq!(lines(&diags, "L9"), vec![11, 12], "{diags:#?}");
    assert_eq!(
        diags.len(),
        2,
        "the allowed and lock-free handlers are clean: {diags:#?}"
    );
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    let diags = lint_fixture("clean.rs");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn diagnostics_render_as_rule_file_line() {
    let diags = lint_fixture("bad_l5.rs");
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("L5 crates/lint/tests/fixtures/bad_l5.rs:4:"),
        "{rendered}"
    );
}

#[test]
fn classify_scopes_rules_by_tree_location() {
    // Vendored code and lint fixtures are never scanned.
    assert!(classify("vendor/parking_lot/src/lib.rs").is_none());
    assert!(classify("crates/lint/tests/fixtures/bad_l1.rs").is_none());
    // Concurrency-critical crates get the full rule set.
    let core = classify("crates/core/src/lib.rs").expect("core is in scope");
    assert!(core.l1 && core.l2 && core.l3 && core.l4 && core.l5 && core.l6);
    assert!(!core.l7, "L7 is reserved for the durable write-path files");
    let wal = classify("crates/storage/src/wal.rs").expect("wal is in scope");
    assert!(wal.l7 && wal.l2 && wal.l3);
    // The HTTP front end holds requests, locks, and sockets in one place:
    // it gets the lock-graph, panic-path, and blocking-I/O rules.
    let server = classify("crates/server/src/lib.rs").expect("server is in scope");
    assert!(server.l2 && server.l3 && server.l9);
    assert!(
        !classify("crates/bench/src/bin/paper_figures.rs")
            .unwrap()
            .l9
    );
    // Bench binaries keep the API-hygiene rules but not the panic/lock-graph
    // rules reserved for the concurrent store itself.
    let bench = classify("crates/bench/src/bin/paper_figures.rs").expect("bench is in scope");
    assert!(bench.l1 && bench.l4 && bench.l5 && bench.l6);
    assert!(!bench.l2 && !bench.l3);
    // Page-layout confinement holds everywhere except the codec itself, the
    // chunk/accessor layer, and the codec's own property test.
    assert!(core.l8 && bench.l8);
    assert!(!classify("crates/columnar/src/compress.rs").unwrap().l8);
    assert!(!classify("crates/columnar/src/column.rs").unwrap().l8);
    assert!(
        !classify("crates/columnar/tests/compress_prop.rs")
            .unwrap()
            .l8
    );
    assert!(classify("crates/columnar/src/disk.rs").unwrap().l8);
}

/// The CI gate, in test form: the real tree must lint clean. Any diagnostic
/// here means a rule regression or an unannotated new acquisition/panic.
#[test]
fn workspace_lints_clean() {
    let diags = lint_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
