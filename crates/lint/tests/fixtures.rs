//! Integration tests driving the full lint pipeline (lex → rules →
//! suppression) over the fixture files in `tests/fixtures/`.
//!
//! Fixtures hold violations on purpose, so the workspace walker skips any
//! directory named `fixtures`; these tests feed them through the same
//! per-file path the engine uses, under a synthetic workspace-relative
//! path that selects the crate role being exercised.

use nevermind_lint::context::classify;
use nevermind_lint::lexer::lex;
use nevermind_lint::rules::check_file;
use nevermind_lint::suppress;
use nevermind_lint::Diagnostic;

/// Lints a fixture as if it lived at `rel_path` in the workspace.
fn lint_as(fixture: &str, rel_path: &str) -> Vec<Diagnostic> {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let ctx = classify(rel_path).unwrap_or_else(|| panic!("{rel_path} must classify"));
    let lexed = lex(&src);
    let raw = check_file(rel_path, &ctx, &lexed);
    let (kept, _) = suppress::apply(rel_path, &lexed.comments, raw, true);
    kept
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn panic_positive_fires_once_per_site() {
    let diags = lint_as("panic_positive.rs", "crates/ml/src/fixture.rs");
    let fired = rules_fired(&diags);
    assert_eq!(fired.len(), 5, "unwrap, expect, panic!, todo!, unimplemented!: {diags:?}");
    assert!(fired.iter().all(|r| *r == "no-panic-in-lib"), "{diags:?}");
    // Diagnostics carry real positions: all distinct, ascending lines.
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert!(lines.windows(2).all(|w| w[0] < w[1]), "sorted positions: {lines:?}");
}

#[test]
fn panic_negative_is_clean_including_test_regions() {
    let diags = lint_as("panic_negative.rs", "crates/ml/src/fixture.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn panic_rule_silent_in_cli_and_test_files() {
    // The same violating fixture is fine in a binary crate, under tests/,
    // or in benches/ — panics there abort one run, not a dispatch loop.
    for rel in
        ["crates/cli/src/fixture.rs", "crates/ml/tests/fixture.rs", "crates/ml/benches/fixture.rs"]
    {
        let diags = lint_as("panic_positive.rs", rel);
        assert!(
            !rules_fired(&diags).contains(&"no-panic-in-lib"),
            "no-panic-in-lib must not fire at {rel}: {diags:?}"
        );
    }
}

#[test]
fn unordered_positive_fires_in_ordered_crates_only() {
    let diags = lint_as("unordered_positive.rs", "crates/features/src/fixture.rs");
    let fired = rules_fired(&diags);
    assert!(fired.iter().filter(|r| **r == "no-unordered-iteration").count() >= 2, "{diags:?}");

    // The CLI formats output; it may hash freely.
    let diags = lint_as("unordered_positive.rs", "crates/cli/src/fixture.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unordered_negative_is_clean() {
    let diags = lint_as("unordered_negative.rs", "crates/features/src/fixture.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn float_cmp_fixture_flags_partial_cmp_only() {
    let diags = lint_as("float_cmp.rs", "crates/ml/src/fixture.rs");
    // One partial_cmp (+ its unwrap) on the bad line; total_cmp is clean.
    assert!(rules_fired(&diags).contains(&"total-cmp-for-floats"), "{diags:?}");
    assert_eq!(diags.iter().filter(|d| d.rule == "total-cmp-for-floats").count(), 1, "{diags:?}");
    assert!(
        diags.iter().all(|d| d.line == 4 || d.rule != "total-cmp-for-floats"),
        "must point at the partial_cmp line: {diags:?}"
    );
}

#[test]
fn wallclock_fires_in_model_crates_not_in_obs_or_cli() {
    let diags = lint_as("wallclock.rs", "crates/core/src/fixture.rs");
    // Every token mention counts — the return-type positions as well as the
    // ::now() calls — because storing a clock value in model state is just
    // as non-replayable as reading one.
    assert_eq!(
        diags.iter().filter(|d| d.rule == "no-wallclock-in-model").count(),
        4,
        "Instant and SystemTime, in type and call position: {diags:?}"
    );
    for rel in ["crates/obs/src/fixture.rs", "crates/cli/src/fixture.rs"] {
        let diags = lint_as("wallclock.rs", rel);
        assert!(
            !rules_fired(&diags).contains(&"no-wallclock-in-model"),
            "clock reads are the obs/cli crates' job at {rel}: {diags:?}"
        );
    }
}

#[test]
fn rng_fixture_flags_ambient_entropy_everywhere() {
    // Replayability is global: even tests may not seed from the
    // environment.
    for rel in ["crates/ml/src/fixture.rs", "crates/cli/src/fixture.rs", "tests/fixture.rs"] {
        let diags = lint_as("rng.rs", rel);
        assert_eq!(
            diags.iter().filter(|d| d.rule == "seeded-rng-only").count(),
            2,
            "thread_rng + from_entropy at {rel}: {diags:?}"
        );
    }
}

#[test]
fn fan_out_fixture_fires_everywhere_in_crates_but_the_par_module() {
    // Library source, tests and benches alike: one helper owns fan-outs.
    for rel in [
        "crates/ml/src/fixture.rs",
        "crates/dslsim/tests/fixture.rs",
        "crates/bench/benches/fixture.rs",
    ] {
        let diags = lint_as("fan_out.rs", rel);
        let lines: Vec<u32> =
            diags.iter().filter(|d| d.rule == "fan-out-via-par").map(|d| d.line).collect();
        assert_eq!(lines, vec![4, 5, 9], "core-count query + two scopes at {rel}: {diags:?}");
    }
    let diags = lint_as("fan_out.rs", "crates/obs/src/par.rs");
    assert!(!rules_fired(&diags).contains(&"fan-out-via-par"), "the helper itself: {diags:?}");
}

#[test]
fn lock_fixture_flags_unwrap_not_recovery() {
    let diags = lint_as("lock.rs", "crates/obs/src/fixture.rs");
    let lock_diags: Vec<_> =
        diags.iter().filter(|d| d.rule == "no-poisoning-lock-unwrap").collect();
    assert_eq!(lock_diags.len(), 1, "{diags:?}");
    assert_eq!(lock_diags[0].line, 6, "must point at the .lock().unwrap() line");
}

#[test]
fn suppression_fixture_reasoned_allow_wins_reasonless_does_not() {
    let diags = lint_as("suppressed.rs", "crates/ml/src/fixture.rs");
    let fired = rules_fired(&diags);
    // The acknowledged site is gone; the reasonless allow leaves both its
    // hygiene diagnostic and nothing else missing.
    assert!(fired.contains(&"suppression-missing-reason"), "{diags:?}");
    assert!(
        !diags.iter().any(|d| d.rule == "no-panic-in-lib" && d.line == 4),
        "reasoned allow must suppress its line: {diags:?}"
    );
}

#[test]
fn trace_fields_fixture_flags_dynamic_names_everywhere() {
    // The trace vocabulary is global: emission sites live in core, dslsim,
    // ml *and* the cli, so the rule is not scoped to a crate list.
    for rel in ["crates/core/src/fixture.rs", "crates/cli/src/fixture.rs", "tests/fixture.rs"] {
        let diags = lint_as("trace_fields.rs", rel);
        let fired: Vec<_> =
            diags.iter().filter(|d| d.rule == "trace-event-fields-are-static").collect();
        assert_eq!(fired.len(), 3, "variable, format!, and &format! names at {rel}: {diags:?}");
        // The literal-name chain and the unrelated `.attr` field are clean.
        assert!(fired.iter().all(|d| d.line == 8 || d.line == 10 || d.line == 12), "{diags:?}");
    }
}

#[test]
fn sampler_fixture_flags_the_sweep_loop_only() {
    let diags = lint_as("sampler.rs", "crates/obs/src/fixture.rs");
    let fired: Vec<_> = diags.iter().filter(|d| d.rule == "no-blocking-in-sampler").collect();
    assert_eq!(
        fired.len(),
        5,
        "counter, snapshot, format!, to_string, span! inside mod sampler: {diags:?}"
    );
    // Lines 7-11 are the sampler body; the look-alike module and the
    // top-level function reuse the same tokens and must stay clean.
    assert!(fired.iter().all(|d| (7..=11).contains(&d.line)), "{diags:?}");
    // The rule is about the sweep loop wherever it lives, not a crate list.
    let diags = lint_as("sampler.rs", "crates/cli/src/fixture.rs");
    assert_eq!(diags.iter().filter(|d| d.rule == "no-blocking-in-sampler").count(), 5, "{diags:?}");
}

#[test]
fn tokenizer_fixture_proves_strings_and_comments_never_match() {
    for rel in ["crates/ml/src/fixture.rs", "crates/core/src/fixture.rs"] {
        let diags = lint_as("tokenizer.rs", rel);
        assert!(diags.is_empty(), "banned names in strings/comments matched at {rel}: {diags:?}");
    }
}

#[test]
fn engine_skips_fixture_directories() {
    // The workspace walk must never pick up these deliberately violating
    // files: lint the lint crate's own directory and check no diagnostic
    // points into fixtures/.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let report = nevermind_lint::lint_workspace(std::path::Path::new(root))
        .expect("workspace lints from a checkout");
    assert!(
        report.diagnostics.iter().all(|d| !d.file.contains("fixtures/")),
        "fixtures leaked into the workspace walk"
    );
}
