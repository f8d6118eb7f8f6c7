//! The rule set: token-level matchers for the determinism and robustness
//! invariants this workspace depends on, each born from a past (or latent)
//! bug class.

use crate::context::{FileContext, FileKind, ORDERED_CRATES, PANIC_FREE_CRATES, WALLCLOCK_CRATES};
use crate::diag::Diagnostic;
use crate::lexer::{Lexed, Tok, TokKind};

/// Static description of one rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Kebab-case identifier used in output and `lint:allow(...)`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every enforceable rule, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-panic-in-lib",
        summary: "library crates must not unwrap/expect/panic on operational data",
    },
    RuleInfo {
        id: "no-unordered-iteration",
        summary: "scoring-path crates must not use HashMap/HashSet (iteration order can leak into rankings)",
    },
    RuleInfo {
        id: "total-cmp-for-floats",
        summary: "float ordering must use total_cmp, not partial_cmp (NaN panics)",
    },
    RuleInfo {
        id: "no-wallclock-in-model",
        summary: "model code must not read wall clocks (Instant/SystemTime); time belongs to obs/cli/bench",
    },
    RuleInfo {
        id: "seeded-rng-only",
        summary: "all randomness must flow from explicit seeds (no thread_rng/from_entropy/OsRng)",
    },
    RuleInfo {
        id: "no-poisoning-lock-unwrap",
        summary: "use a poisoning-recovering lock helper instead of .lock().unwrap()",
    },
    RuleInfo {
        id: "trace-event-fields-are-static",
        summary: "trace event field names (.attr(...)) must be string literals, not runtime-formatted",
    },
    RuleInfo {
        id: "no-blocking-in-sampler",
        summary: "profiler sampler regions (`mod sampler`) must not touch the metrics registry or allocate per sample",
    },
    RuleInfo {
        id: "fan-out-via-par",
        summary: "crates fan work out through nevermind_obs::par only (no hand-rolled scoped threads or core-count queries elsewhere)",
    },
    RuleInfo {
        id: "lock-order",
        summary: "lock acquisition order must be acyclic across the crate call graph (deadlock risk)",
    },
    RuleInfo {
        id: "no-side-effects-under-lock",
        summary: "obs code must not do I/O or unbounded serialization while holding a lock",
    },
    RuleInfo {
        id: "schema-drift",
        summary: "wire schemas, trace kinds and metric names in code must match the documented registry",
    },
    RuleInfo {
        id: "nondeterminism-dataflow",
        summary: "HashMap/HashSet iteration output must be sorted before reaching trace/export/score sinks",
    },
];

/// The one module allowed to spawn scoped threads and size them.
const PAR_MODULE: &str = "crates/obs/src/par.rs";

/// Returns the rule table entry for `id`, if any.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Runs every applicable rule over one lexed file, returning diagnostics in
/// source order. `rel_path` is workspace-relative with `/` separators.
pub fn check_file(rel_path: &str, ctx: &FileContext, lexed: &Lexed) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let test_ranges = cfg_test_ranges(toks);
    let in_test_code = |i: usize| -> bool { test_ranges.iter().any(|&(a, b)| i >= a && i <= b) };
    let sampler_ranges = mod_sampler_ranges(toks);
    let in_sampler = |i: usize| -> bool { sampler_ranges.iter().any(|&(a, b)| i >= a && i <= b) };

    let panic_rule = ctx.kind == FileKind::Src && ctx.crate_in(PANIC_FREE_CRATES);
    let ordered_rule = ctx.crate_in(ORDERED_CRATES);
    let wallclock_rule = ctx.kind == FileKind::Src && !ctx.crate_in(WALLCLOCK_CRATES);
    let fan_out_rule = ctx.crate_name.is_some() && rel_path != PAR_MODULE;

    let mut out = Vec::new();
    let mut emit = |tok: &Tok, rule: &'static str, message: String| {
        out.push(Diagnostic {
            file: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            severity: "error",
            message,
        });
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }

        // --- no-panic-in-lib ------------------------------------------------
        if panic_rule && !in_test_code(i) {
            if method_call(toks, i) && (t.text == "unwrap" || t.text == "expect") {
                emit(
                    t,
                    "no-panic-in-lib",
                    format!(
                        ".{}() can panic on operational data; return a Result or handle the None/Err arm",
                        t.text
                    ),
                );
            }
            if macro_bang(toks, i) && matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
            {
                emit(
                    t,
                    "no-panic-in-lib",
                    format!(
                        "{}! aborts the pipeline mid-dispatch; return an error instead",
                        t.text
                    ),
                );
            }
        }

        // --- no-unordered-iteration ----------------------------------------
        if ordered_rule && (t.text == "HashMap" || t.text == "HashSet") {
            let ordered = if t.text == "HashMap" { "BTreeMap" } else { "BTreeSet" };
            emit(
                t,
                "no-unordered-iteration",
                format!(
                    "{} iteration order is nondeterministic and can leak into ranked output; use {} or a sorted Vec",
                    t.text, ordered
                ),
            );
        }

        // --- total-cmp-for-floats ------------------------------------------
        if method_call(toks, i) && t.text == "partial_cmp" {
            emit(
                t,
                "total-cmp-for-floats",
                "partial_cmp on floats forces an unwrap/expect that panics on NaN; use f64::total_cmp"
                    .to_string(),
            );
        }

        // --- no-wallclock-in-model -----------------------------------------
        if wallclock_rule && !in_test_code(i) && (t.text == "Instant" || t.text == "SystemTime") {
            emit(
                t,
                "no-wallclock-in-model",
                format!(
                    "{} makes model code non-replayable; route timing through nevermind-obs (spans or Stopwatch)",
                    t.text
                ),
            );
        }

        // --- seeded-rng-only ------------------------------------------------
        if matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "OsRng" | "from_os_rng") {
            emit(
                t,
                "seeded-rng-only",
                format!(
                    "{} draws from ambient entropy; every RNG must be seeded explicitly (e.g. ChaCha8Rng::seed_from_u64)",
                    t.text
                ),
            );
        }

        // --- no-poisoning-lock-unwrap --------------------------------------
        if t.text == "lock"
            && method_call(toks, i)
            && toks.get(i + 2).is_some_and(|p| p.is_punct(')'))
            && toks.get(i + 3).is_some_and(|p| p.is_punct('.'))
            && toks.get(i + 4).is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
        {
            emit(
                t,
                "no-poisoning-lock-unwrap",
                ".lock().unwrap() propagates mutex poisoning into a crash cascade; use a lock_recovering helper (see nevermind-obs)"
                    .to_string(),
            );
        }

        // --- trace-event-fields-are-static ---------------------------------
        // A runtime-formatted field name (`.attr(format!("f{i}"), ...)`)
        // fractures the nevermind-trace/v1 vocabulary: `explain`/`report`
        // match fields by name, so names must be compile-time constants.
        if t.text == "attr"
            && method_call(toks, i)
            && toks.get(i + 2).is_some_and(|a| a.kind != TokKind::Literal)
        {
            emit(
                t,
                "trace-event-fields-are-static",
                "trace event field names must be string literals so the nevermind-trace/v1 vocabulary stays enumerable; put variability in the field value"
                    .to_string(),
            );
        }

        // --- fan-out-via-par ------------------------------------------------
        // Every fan-out goes through `nevermind_obs::par`, which sizes the
        // workers, splits the work and re-roots worker spans under their
        // caller; a hand-rolled scope would orphan its spans again.
        let scoped = t.text == "scope"
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("thread");
        if fan_out_rule && (scoped || t.text == "available_parallelism") {
            emit(
                t,
                "fan-out-via-par",
                format!(
                    "`{}` hand-rolls a fan-out; use nevermind_obs::par (ranges + map), which keeps worker spans under their caller",
                    t.text
                ),
            );
        }

        // --- no-blocking-in-sampler ----------------------------------------
        // The profiler's sweep loop (`mod sampler`) runs between every pair
        // of samples on every instrumented thread's critical path: touching
        // the sharded metrics registry from it can block workers mid-span,
        // and per-sample allocation turns a 1ms cadence into allocator
        // pressure. The loop may only read its own pre-registered stacks
        // into a reusable scratch buffer.
        if in_sampler(i) {
            const REGISTRY_CALLS: &[&str] = &[
                "counter",
                "gauge",
                "histogram",
                "series",
                "distribution",
                "record_span",
                "snapshot",
                "to_json",
            ];
            const ALLOC_CALLS: &[&str] = &["to_string", "to_owned", "to_vec"];
            const BANNED_MACROS: &[&str] =
                &["counter_add", "gauge_set", "histogram_record", "span", "format", "vec"];
            if method_call(toks, i) && REGISTRY_CALLS.contains(&t.text.as_str()) {
                emit(
                    t,
                    "no-blocking-in-sampler",
                    format!(
                        ".{}() reaches the metrics registry from the sampler hot loop and can block every instrumented thread; the sweep may only read its own registered stacks",
                        t.text
                    ),
                );
            }
            if method_call(toks, i) && ALLOC_CALLS.contains(&t.text.as_str()) {
                emit(
                    t,
                    "no-blocking-in-sampler",
                    format!(
                        ".{}() allocates on every sample; reuse a scratch buffer and clone only when a novel stack shape appears",
                        t.text
                    ),
                );
            }
            if macro_bang(toks, i) && BANNED_MACROS.contains(&t.text.as_str()) {
                emit(
                    t,
                    "no-blocking-in-sampler",
                    format!(
                        "{}! records metrics or allocates inside the sampler hot loop; the sweep must stay off the registry and allocation-free per sample",
                        t.text
                    ),
                );
            }
        }
    }
    out
}

/// Whether token `i` is the method name of a `.name(` call.
fn method_call(toks: &[Tok], i: usize) -> bool {
    i > 0 && toks[i - 1].is_punct('.') && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
}

/// Whether token `i` is a macro name directly followed by `!`.
fn macro_bang(toks: &[Tok], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|p| p.is_punct('!'))
}

/// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items (test
/// modules and functions inside library source), where the panic and
/// wall-clock rules do not apply.
pub(crate) fn cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') || !toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Walk a run of attributes; remember whether any is a test marker.
        let attr_start = i;
        let mut is_test = false;
        while i < toks.len()
            && toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            let body_start = i + 2;
            let Some(close) = matching(toks, i + 1, '[', ']') else {
                // Unclosed attribute (malformed source): step past `#[` so
                // the outer scan always advances.
                i += 2;
                break;
            };
            is_test |= attr_is_test(&toks[body_start..close]);
            i = close + 1;
        }
        if !is_test {
            continue;
        }
        // Exclude the annotated item: up to its matching close brace, or to
        // a `;` for brace-less items.
        let mut j = i;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            j += 1;
        }
        if j < toks.len() && toks[j].is_punct('{') {
            let end = matching(toks, j, '{', '}').unwrap_or(toks.len() - 1);
            ranges.push((attr_start, end));
            i = end + 1;
        } else {
            ranges.push((attr_start, j.min(toks.len().saturating_sub(1))));
            i = j + 1;
        }
    }
    ranges
}

/// Token-index ranges covered by `mod sampler { ... }` items — the profiler
/// sweep loop, where registry access and per-sample allocation are banned.
/// The rule keys on the module name by convention: any sampler hot loop in
/// this workspace must live in a module called `sampler` to get coverage.
fn mod_sampler_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].is_ident("mod") && toks[i + 1].is_ident("sampler") {
            // Skip to the module body; `mod sampler;` declarations have no
            // body to scan.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let end = matching(toks, j, '{', '}').unwrap_or(toks.len() - 1);
                ranges.push((i, end));
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Exact `cfg(test)` or bare `test` attribute bodies only — `cfg(not(test))`
/// and friends keep their code in scope.
fn attr_is_test(body: &[Tok]) -> bool {
    match body {
        [t] => t.is_ident("test"),
        [c, open, t, close] => {
            c.is_ident("cfg") && open.is_punct('(') && t.is_ident("test") && close.is_punct(')')
        }
        _ => false,
    }
}

/// Index of the token closing the delimiter opened at `open_idx`.
fn matching(toks: &[Tok], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ml_src() -> FileContext {
        FileContext { crate_name: Some("ml".into()), kind: FileKind::Src }
    }

    fn check(src: &str, ctx: &FileContext) -> Vec<Diagnostic> {
        check_file("crates/x/src/lib.rs", ctx, &lex(src))
    }

    #[test]
    fn unwrap_flagged_in_lib_but_not_in_test_mod() {
        let src = "
            fn f(v: Vec<u32>) -> u32 { v.first().unwrap() + 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { assert_eq!(super::f(vec![1]).checked_mul(2).unwrap(), 2); }
            }
        ";
        let diags = check(src, &ml_src());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-panic-in-lib");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn cfg_not_test_stays_in_scope() {
        let src = "
            #[cfg(not(test))]
            fn f() { g().unwrap(); }
        ";
        let diags = check(src, &ml_src());
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn hash_collections_flagged_on_scoring_path_only() {
        let src = "use std::collections::HashMap; fn f(m: &HashMap<u32, u32>) {}";
        assert_eq!(check(src, &ml_src()).len(), 2);
        let cli = FileContext { crate_name: Some("cli".into()), kind: FileKind::Src };
        assert_eq!(check(src, &cli).len(), 0);
    }

    #[test]
    fn partial_cmp_flagged_everywhere_including_tests() {
        let src = "fn f(a: f64, b: f64) { a.partial_cmp(&b); }";
        let tests = FileContext { crate_name: None, kind: FileKind::Tests };
        let diags = check(src, &tests);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "total-cmp-for-floats");
        // Defining partial_cmp (PartialOrd impls) is not a call.
        let def =
            "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { None } }";
        assert_eq!(check(def, &tests).len(), 0);
    }

    #[test]
    fn wallclock_scoped_to_model_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(check(src, &ml_src())[0].rule, "no-wallclock-in-model");
        let obs = FileContext { crate_name: Some("obs".into()), kind: FileKind::Src };
        assert_eq!(check(src, &obs).len(), 0);
        let bench = FileContext { crate_name: Some("bench".into()), kind: FileKind::Src };
        assert_eq!(check(src, &bench).len(), 0);
    }

    #[test]
    fn ambient_rng_flagged_even_in_tests() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }";
        let tests = FileContext { crate_name: Some("dslsim".into()), kind: FileKind::Tests };
        let diags = check(src, &tests);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "seeded-rng-only");
    }

    #[test]
    fn lock_unwrap_pattern() {
        let src = "fn f(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }";
        let cli = FileContext { crate_name: Some("cli".into()), kind: FileKind::Src };
        let diags = check(src, &cli);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-poisoning-lock-unwrap");
        // A recovering helper that *handles* the poison arm is clean.
        let ok = "fn f(m: &Mutex<u32>) { let g = match m.lock() { Ok(g) => g, Err(p) => p.into_inner() }; }";
        assert_eq!(check(ok, &cli).len(), 0);
    }

    #[test]
    fn attr_field_names_must_be_literals() {
        let cli = FileContext { crate_name: Some("cli".into()), kind: FileKind::Src };
        // Literal names are fine, wherever the call appears.
        let ok = r#"fn f(ev: TraceEvent) { ev.attr("margin", 1.0).attr("rank", 3u32); }"#;
        assert_eq!(check(ok, &cli).len(), 0);
        // Runtime-formatted or variable names fracture the schema.
        let bad = r#"fn f(ev: TraceEvent, name: &'static str, i: usize) {
            ev.attr(name, 1.0);
            ev.attr(format!("f{i}"), 2.0);
        }"#;
        let diags = check(bad, &cli);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "trace-event-fields-are-static"));
        // Unrelated `attr` identifiers (fields, paths) are not method calls.
        let unrelated = "fn f(a: Attr) { let x = a.attr; attr(1); }";
        assert_eq!(check(unrelated, &cli).len(), 0);
    }

    #[test]
    fn sampler_rule_scopes_to_mod_sampler_bodies() {
        let obs = FileContext { crate_name: Some("obs".into()), kind: FileKind::Src };
        let bad = r#"
            mod sampler {
                fn run() {
                    let c = super::global().counter("obs/sweeps");
                    let s = format!("sweep {}", 1);
                }
            }
            fn outside() {
                let c = global().counter("obs/other");
                let s = format!("fine {}", 1);
            }
        "#;
        let diags = check(bad, &obs);
        let fired: Vec<_> = diags.iter().filter(|d| d.rule == "no-blocking-in-sampler").collect();
        assert_eq!(fired.len(), 2, "counter + format! inside the module only: {diags:?}");
        assert!(fired.iter().all(|d| d.line == 4 || d.line == 5), "{diags:?}");
        // A body-less declaration has nothing to scan.
        let decl = r#"mod sampler; fn f() { global().counter("x"); }"#;
        assert!(check(decl, &obs).is_empty(), "mod sampler; must not blanket the file");
    }

    #[test]
    fn rule_table_is_consistent() {
        for r in RULES {
            assert!(rule_info(r.id).is_some());
            assert!(!r.summary.is_empty());
        }
        assert!(rule_info("no-such-rule").is_none());
    }
}
