//! Fixture-driven rule tests: every rule must fire on its broken snippet
//! and stay silent on the matching clean snippet.
//!
//! The fixtures live under `tests/fixtures/` — a directory the workspace
//! walker deliberately skips (the snippets are *supposed* to be broken) —
//! and are linted here through [`beas_lint::lint_source`] under a simulated
//! workspace path, since several rules scope by file location.

use beas_lint::{lint_source, FileContext, Finding};
use std::path::Path;

/// Lint a fixture as if it lived at `simulated_path` in the workspace.
fn lint_fixture(name: &str, simulated_path: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    lint_source(&src, &FileContext::from_path(simulated_path))
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn l001_fires_on_swallowed_evaluation_results() {
    let findings = lint_fixture("l001_fire.rs", "crates/engine/src/filter.rs");
    assert_eq!(rules_of(&findings), vec!["L001", "L001"], "{findings:?}");
    assert!(findings[0].message.contains("unwrap_or"));
    assert!(findings[1].message.contains("ok"));
}

#[test]
fn l001_clean_on_propagated_results() {
    let findings = lint_fixture("l001_clean.rs", "crates/engine/src/filter.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l002_fires_on_raw_value_keys_without_canonicalization() {
    let findings = lint_fixture("l002_fire.rs", "crates/engine/src/group.rs");
    assert_eq!(rules_of(&findings), vec!["L002"], "{findings:?}");
    assert!(findings[0].message.contains("HashMap"));
}

#[test]
fn l002_clean_when_the_file_canonicalizes() {
    let findings = lint_fixture("l002_clean.rs", "crates/engine/src/group.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l002_sees_shared_slice_keys() {
    // the constraint index's shard map: `Arc<[Value]>` keys probed by
    // `&[Value]` are raw value keys like any other
    let map = "struct Shard { buckets: HashMap<Arc<[Value]>, Arc<Bucket>> }\n";
    let ctx = FileContext::from_path("crates/storage/src/shard.rs");
    assert_eq!(rules_of(&lint_source(map, &ctx)), vec!["L002"]);
    let canonical = format!("{map}fn key(r: &Row) -> Vec<Value> {{ index_key(r) }}\n");
    assert!(lint_source(&canonical, &ctx).is_empty());
}

#[test]
fn l002_skips_the_key_module_itself() {
    let findings = lint_fixture("l002_fire.rs", "crates/common/src/key.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l003_fires_on_blocking_loops_without_checkpoints() {
    let findings = lint_fixture("l003_fire.rs", "crates/engine/src/executor.rs");
    assert_eq!(rules_of(&findings), vec!["L003"], "{findings:?}");
    assert!(findings[0].message.contains("aggregate_groups"));
}

#[test]
fn l003_clean_when_loops_checkpoint_and_only_in_blocking_files() {
    let findings = lint_fixture("l003_clean.rs", "crates/engine/src/executor.rs");
    assert!(findings.is_empty(), "{findings:?}");
    // the same broken source outside executor/approx files is out of scope
    let elsewhere = lint_fixture("l003_fire.rs", "crates/engine/src/plan.rs");
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn l004_fires_on_direct_storage_mutation() {
    let findings = lint_fixture("l004_fire.rs", "crates/engine/src/load.rs");
    assert_eq!(rules_of(&findings), vec!["L004", "L004"], "{findings:?}");
    assert!(findings[0].message.contains("table_mut"));
    assert!(findings[1].message.contains("delete_where"));
}

#[test]
fn l004_clean_through_the_facade_and_inside_it() {
    let findings = lint_fixture("l004_clean.rs", "crates/engine/src/load.rs");
    assert!(findings.is_empty(), "{findings:?}");
    // the storage crate and the facade modules may mutate directly
    for facade in [
        "crates/storage/src/table.rs",
        "crates/core/src/system.rs",
        "crates/core/src/maintenance.rs",
    ] {
        let inside = lint_fixture("l004_fire.rs", facade);
        assert!(inside.is_empty(), "{facade}: {inside:?}");
    }
}

#[test]
fn l005_fires_on_static_mut_and_refcell_in_concurrent_code() {
    let findings = lint_fixture("l005_fire.rs", "crates/service/src/session.rs");
    assert_eq!(rules_of(&findings), vec!["L005", "L005"], "{findings:?}");
    assert!(findings[0].message.contains("static mut"));
    assert!(findings[1].message.contains("RefCell"));
}

#[test]
fn l005_static_mut_fires_everywhere_refcell_only_in_concurrent_files() {
    let findings = lint_fixture("l005_fire.rs", "crates/sql/src/parser.rs");
    assert_eq!(rules_of(&findings), vec!["L005"], "{findings:?}");
    assert!(findings[0].message.contains("static mut"));
    let clean = lint_fixture("l005_clean.rs", "crates/service/src/session.rs");
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn l006_fires_on_unjustified_allow() {
    let findings = lint_fixture("l006_fire.rs", "crates/sql/src/binder.rs");
    assert_eq!(rules_of(&findings), vec!["L006"], "{findings:?}");
}

#[test]
fn l006_clean_with_same_line_or_preceding_comment() {
    let findings = lint_fixture("l006_clean.rs", "crates/sql/src/binder.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l007_fires_on_crate_roots_missing_the_forbid() {
    let findings = lint_fixture("l007_fire.rs", "crates/foo/src/lib.rs");
    assert_eq!(rules_of(&findings), vec!["L007"], "{findings:?}");
    // the same file is fine when it is not a crate root, or lives in a shim
    assert!(lint_fixture("l007_fire.rs", "crates/foo/src/util.rs").is_empty());
    assert!(lint_fixture("l007_fire.rs", "crates/shims/rand/src/lib.rs").is_empty());
}

#[test]
fn l007_clean_with_the_forbid() {
    let findings = lint_fixture("l007_clean.rs", "crates/foo/src/lib.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l008_fires_on_kernel_files_with_hand_rolled_hashing() {
    let findings = lint_fixture("l008_fire.rs", "crates/engine/src/vectorized.rs");
    assert_eq!(rules_of(&findings), vec!["L008", "L008"], "{findings:?}");
    // line 1: missing differential-test reference; then the hashing token
    assert!(findings[0].message.contains("vectorized_semantics"));
    assert!(findings[1].message.contains("canonical_key_hash"));
    // the same source outside a kernel file is out of scope
    assert!(lint_fixture("l008_fire.rs", "crates/engine/src/executor_helpers.rs").is_empty());
}

#[test]
fn l008_clean_when_hashing_is_canonical_and_harness_referenced() {
    for path in [
        "crates/engine/src/vectorized.rs",
        "crates/sql/src/columnar.rs",
    ] {
        let findings = lint_fixture("l008_clean.rs", path);
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

#[test]
fn l009_fires_on_raw_clock_reads() {
    let findings = lint_fixture("l009_fire.rs", "crates/engine/src/executor.rs");
    assert_eq!(rules_of(&findings), vec!["L009", "L009"], "{findings:?}");
    assert!(findings[0].message.contains("Instant::now()"));
    assert!(findings[1].message.contains("SystemTime::now()"));
    assert!(findings[0].message.contains("beas_obs::clock::now()"));
}

#[test]
fn l009_exempts_the_clock_module_and_the_bench_harness() {
    for path in [
        "crates/obs/src/clock.rs",
        "crates/bench/src/harness.rs",
        // test code is scoped out like every structural rule
        "crates/engine/tests/timing.rs",
    ] {
        let findings = lint_fixture("l009_fire.rs", path);
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

#[test]
fn l009_clean_when_timing_routes_through_the_sanctioned_clock() {
    let findings = lint_fixture("l009_clean.rs", "crates/engine/src/executor.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn justified_suppressions_silence_findings() {
    // l004_fire.rs shows the violations fire; suppressed.rs is the same
    // shape with above-line, multi-comment-line and same-line suppressions
    let findings = lint_fixture("suppressed.rs", "crates/engine/src/load.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn suppressions_do_not_leak_across_rules_or_lines() {
    // an L002 suppression must not excuse an L004 finding
    let src = "// beas-lint: allow(L002) -- wrong rule\n\
               fn f(db: &mut Database) { db.drop_table(\"t\").unwrap(); }\n";
    let findings = lint_source(src, &FileContext::from_path("crates/engine/src/x.rs"));
    assert_eq!(rules_of(&findings), vec!["L004"], "{findings:?}");
    // and a suppression two code lines up is out of range
    let src = "// beas-lint: allow(L004) -- too far away\n\
               fn f(db: &mut Database) {\n\
               \x20   let keep = 1;\n\
               \x20   db.drop_table(\"t\").unwrap();\n\
               }\n";
    let findings = lint_source(src, &FileContext::from_path("crates/engine/src/x.rs"));
    assert_eq!(rules_of(&findings), vec!["L004"], "{findings:?}");
}

#[test]
fn malformed_suppressions_are_l000_findings() {
    let findings = lint_fixture("malformed.rs", "crates/engine/src/x.rs");
    assert_eq!(
        rules_of(&findings),
        vec!["L000", "L000", "L000"],
        "{findings:?}"
    );
}

#[test]
fn structural_rules_skip_test_code_but_l006_applies_there_too() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
               \x20   #[allow(dead_code)]\n\
               \x20   fn helper(db: &mut Database) { db.drop_table(\"t\").unwrap(); }\n\
               }\n";
    let findings = lint_source(src, &FileContext::from_path("crates/engine/src/x.rs"));
    // the L004 inside #[cfg(test)] is scoped out; the bare allow is not
    assert_eq!(rules_of(&findings), vec!["L006"], "{findings:?}");
}
