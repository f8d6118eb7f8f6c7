//! Workspace walker, parallel frontend, semantic-pass orchestration and
//! report assembly.
//!
//! The frontend (read → lex → parse → token rules) is embarrassingly
//! parallel and runs per-file on [`nevermind_obs::par`] workers, splitting
//! the sorted file list into one contiguous chunk per available core so the
//! output order — and therefore the report — stays byte-deterministic.
//! The semantic passes then run over the assembled per-crate models:
//! `lock-order` + `no-side-effects-under-lock` share one region walker
//! (reported as the `locks` pass), `nondeterminism-dataflow` walks each
//! function's statements, and `schema-drift` diffs the extracted wire
//! vocabulary against README.md/DESIGN.md.
//!
//! Timing uses `std::time::Instant` directly: the linter is a reporting
//! surface (the `lint` crate sits in `WALLCLOCK_CRATES`), and per-pass
//! wall-clock numbers feed CI's lint-budget gate.

use crate::context::classify;
use crate::diag::{json_string, Diagnostic};
use crate::flow;
use crate::lexer::lex;
use crate::rules::{check_file, rule_info};
use crate::schema;
use crate::semantic::{self, FileUnit};
use crate::suppress;
use nevermind_obs::par;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Options for a lint run.
#[derive(Debug, Default, Clone)]
pub struct LintOptions {
    /// When set, only these rules report (suppression-hygiene diagnostics
    /// always report, except `suppression-unused`, which would misfire on
    /// allows for rules outside the filter).
    pub rules: Option<BTreeSet<String>>,
}

impl LintOptions {
    /// Parses a `--rules a,b,c` filter, rejecting unknown rule names with
    /// the offending name in the error.
    pub fn with_rules(csv: &str) -> Result<LintOptions, String> {
        let mut set = BTreeSet::new();
        for raw in csv.split(',') {
            let name = raw.trim();
            if name.is_empty() {
                continue;
            }
            if rule_info(name).is_none() {
                return Err(format!(
                    "unknown rule '{name}' in --rules (run --list-rules for the valid set)"
                ));
            }
            set.insert(name.to_string());
        }
        if set.is_empty() {
            return Err("--rules names no rule".to_string());
        }
        Ok(LintOptions { rules: Some(set) })
    }

    fn keeps(&self, rule: &str) -> bool {
        match &self.rules {
            None => true,
            Some(set) => set.contains(rule),
        }
    }
}

/// Wall-clock timing of one pass.
#[derive(Debug)]
pub struct PassTiming {
    /// Pass name (`frontend`, `locks`, `nondeterminism-dataflow`,
    /// `schema-drift`).
    pub name: &'static str,
    /// Elapsed milliseconds.
    pub ms: f64,
    /// Diagnostics the pass produced (pre-suppression).
    pub diagnostics: usize,
}

/// Call-graph / lock-graph summary across all analyzed crates.
#[derive(Debug, Default)]
pub struct GraphStats {
    /// Crates with a symbol model (i.e. with `src` files in scope).
    pub crates: usize,
    /// Non-test functions walked.
    pub functions: usize,
    /// Resolved intra-crate call edges.
    pub call_edges: usize,
    /// Distinct named locks.
    pub locks: usize,
    /// Distinct lock-acquisition-order edges.
    pub lock_edges: usize,
}

/// The outcome of linting a workspace.
#[derive(Debug)]
pub struct LintReport {
    /// Surviving (non-suppressed) diagnostics, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files were in scope.
    pub files_scanned: usize,
    /// How many diagnostics `lint:allow` annotations suppressed.
    pub suppressed: usize,
    /// Per-pass wall-clock timings.
    pub passes: Vec<PassTiming>,
    /// Call-graph statistics.
    pub graph: GraphStats,
    /// Total wall-clock of the run in milliseconds.
    pub wall_ms: f64,
}

impl LintReport {
    /// Whether the gate passes (no surviving diagnostics).
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Compiler-style text rendering, one line per diagnostic plus a
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_text());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} diagnostic(s), {} suppressed in {:.1}ms\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.suppressed,
            self.wall_ms,
        ));
        out
    }

    /// One machine-readable JSON document (schema `nevermind-lint/v2`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"nevermind-lint/v2\",\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        out.push_str(&format!("  \"clean\": {},\n", self.clean()));
        out.push_str(&format!("  \"wall_ms\": {:.3},\n", self.wall_ms));
        out.push_str("  \"passes\": [");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\":{},\"ms\":{:.3},\"diagnostics\":{}}}",
                json_string(p.name),
                p.ms,
                p.diagnostics
            ));
        }
        if !self.passes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"call_graph\": {{\"crates\":{},\"functions\":{},\"call_edges\":{},\"locks\":{},\"lock_edges\":{}}},\n",
            self.graph.crates,
            self.graph.functions,
            self.graph.call_edges,
            self.graph.locks,
            self.graph.lock_edges
        ));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&d.render_json());
        }
        if !self.diagnostics.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Lints every in-scope `.rs` file under `root` with default options.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    lint_workspace_with(root, &LintOptions::default())
}

/// Lints every in-scope `.rs` file under `root` (a workspace checkout).
///
/// In scope: `crates/*/{src,tests,benches}/**`, the workspace `tests/` and
/// `examples/`. Out of scope: `vendor/` (API stand-ins), `target/`, and the
/// lint crate's own `tests/fixtures/` (which contain violations on
/// purpose).
pub fn lint_workspace_with(root: &Path, opts: &LintOptions) -> Result<LintReport, String> {
    let run_start = Instant::now();
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    // Deterministic order regardless of directory-entry order.
    files.sort();

    // ---- frontend: read → lex → parse → token rules, parallel per file --
    let frontend_start = Instant::now();
    let slots = run_frontend(root, &files);
    let mut units: Vec<FileUnit> = Vec::new();
    let mut token_diags: Vec<Diagnostic> = Vec::new();
    let mut files_scanned = 0usize;
    for slot in slots {
        match slot {
            FrontendSlot::OutOfScope => {}
            FrontendSlot::Err(e) => return Err(e),
            FrontendSlot::Ok(unit, diags) => {
                files_scanned += 1;
                token_diags.extend(diags);
                units.push(unit);
            }
        }
    }
    let mut passes = Vec::new();
    passes.push(PassTiming {
        name: "frontend",
        ms: ms_since(frontend_start),
        diagnostics: token_diags.len(),
    });

    // ---- per-crate models + lock passes --------------------------------
    let locks_start = Instant::now();
    let mut by_crate: BTreeMap<String, Vec<&FileUnit>> = BTreeMap::new();
    for u in &units {
        if let Some(name) = &u.ctx.crate_name {
            by_crate.entry(name.clone()).or_default().push(u);
        }
    }
    let mut graph = GraphStats { crates: by_crate.len(), ..GraphStats::default() };
    let mut lock_diags: Vec<Diagnostic> = Vec::new();
    let mut models: Vec<semantic::CrateModel<'_>> = Vec::new();
    for (name, crate_units) in &by_crate {
        models.push(semantic::CrateModel::build(name, crate_units.clone()));
    }
    for model in &models {
        let analysis = semantic::analyze_locks(model);
        graph.functions += analysis.functions;
        graph.call_edges += analysis.call_edges;
        graph.locks += analysis.locks;
        graph.lock_edges += analysis.lock_edges;
        lock_diags.extend(analysis.diagnostics);
    }
    passes.push(PassTiming {
        name: "locks",
        ms: ms_since(locks_start),
        diagnostics: lock_diags.len(),
    });

    // ---- nondeterminism dataflow ---------------------------------------
    let flow_start = Instant::now();
    let mut flow_diags: Vec<Diagnostic> = Vec::new();
    for model in &models {
        flow_diags.extend(flow::analyze_flow(model));
    }
    passes.push(PassTiming {
        name: "nondeterminism-dataflow",
        ms: ms_since(flow_start),
        diagnostics: flow_diags.len(),
    });

    // ---- schema drift ---------------------------------------------------
    let schema_start = Instant::now();
    let mut docs: Vec<(String, String)> = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        let path = root.join(doc);
        if path.is_file() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
            docs.push((doc.to_string(), text));
        }
    }
    let all_units: Vec<&FileUnit> = units.iter().collect();
    let schema_diags = schema::analyze_schema(&all_units, &docs);
    passes.push(PassTiming {
        name: "schema-drift",
        ms: ms_since(schema_start),
        diagnostics: schema_diags.len(),
    });

    // ---- filter, suppress, assemble ------------------------------------
    let mut raw: Vec<Diagnostic> = Vec::new();
    for d in token_diags.into_iter().chain(lock_diags).chain(flow_diags).chain(schema_diags) {
        if opts.keeps(d.rule) {
            raw.push(d);
        }
    }
    let mut per_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for d in raw {
        per_file.entry(d.file.clone()).or_default().push(d);
    }
    let check_unused = opts.rules.is_none();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut suppressed = 0usize;
    for u in &units {
        let file_diags = per_file.remove(&u.rel).unwrap_or_default();
        let (kept, n) = suppress::apply(&u.rel, &u.lexed.comments, file_diags, check_unused);
        diagnostics.extend(kept);
        suppressed += n;
    }
    // Diagnostics in files without a lexed unit (doc files) pass through.
    for (_, rest) in per_file {
        diagnostics.extend(rest);
    }
    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(LintReport {
        diagnostics,
        files_scanned,
        suppressed,
        passes,
        graph,
        wall_ms: ms_since(run_start),
    })
}

/// Per-file frontend outcome.
enum FrontendSlot {
    OutOfScope,
    Err(String),
    Ok(FileUnit, Vec<Diagnostic>),
}

/// Runs the frontend over `files`, one contiguous chunk per core on
/// [`nevermind_obs::par`] workers, returning results in file order.
fn run_frontend(root: &Path, files: &[PathBuf]) -> Vec<FrontendSlot> {
    let chunks = par::map(par::ranges(files.len(), 0), |r| {
        files[r].iter().map(|path| frontend_one(root, path)).collect::<Vec<_>>()
    });
    chunks.into_iter().flatten().collect()
}

/// The frontend for one file.
fn frontend_one(root: &Path, path: &Path) -> FrontendSlot {
    let rel = rel_path(root, path);
    let Some(ctx) = classify(&rel) else { return FrontendSlot::OutOfScope };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return FrontendSlot::Err(format!("failed to read {}: {e}", path.display())),
    };
    let lexed = lex(&src);
    let diags = check_file(&rel, &ctx, &lexed);
    let parsed = crate::parser::parse(&lexed.tokens);
    FrontendSlot::Ok(FileUnit { rel, ctx, lexed, parsed }, diags)
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

/// Recursively collects `.rs` files, skipping directories that are never in
/// scope.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("failed to read entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == "vendor" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path (falls back to the full path when
/// `path` is not under `root`).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Writes `contents` to `path` (used by the CLI's `--out` flag).
pub fn write_report(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("failed to write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> LintReport {
        LintReport {
            diagnostics: vec![Diagnostic {
                file: "crates/ml/src/x.rs".into(),
                line: 1,
                col: 2,
                rule: "seeded-rng-only",
                severity: "error",
                message: "no \"entropy\"".into(),
            }],
            files_scanned: 3,
            suppressed: 1,
            passes: vec![
                PassTiming { name: "frontend", ms: 1.25, diagnostics: 1 },
                PassTiming { name: "locks", ms: 0.5, diagnostics: 0 },
            ],
            graph: GraphStats { crates: 2, functions: 10, call_edges: 4, locks: 3, lock_edges: 2 },
            wall_ms: 2.0,
        }
    }

    #[test]
    fn json_document_shape() {
        let report = sample_report();
        let json = report.render_json();
        assert!(json.contains("\"schema\": \"nevermind-lint/v2\""));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\\\"entropy\\\""));
        assert!(json.contains("\"passes\": ["));
        assert!(json.contains("{\"name\":\"frontend\",\"ms\":1.250,\"diagnostics\":1}"));
        assert!(json.contains(
            "\"call_graph\": {\"crates\":2,\"functions\":10,\"call_edges\":4,\"locks\":3,\"lock_edges\":2}"
        ));
        let text = report.render_text();
        assert!(text.contains("crates/ml/src/x.rs:1:2"));
        assert!(text.contains("1 diagnostic(s), 1 suppressed"));
    }

    #[test]
    fn empty_report_is_clean() {
        let report = LintReport {
            diagnostics: vec![],
            files_scanned: 0,
            suppressed: 0,
            passes: vec![],
            graph: GraphStats::default(),
            wall_ms: 0.0,
        };
        assert!(report.clean());
        assert!(report.render_json().contains("\"diagnostics\": []"));
    }

    #[test]
    fn rules_filter_parses_and_rejects_unknown() {
        let opts = LintOptions::with_rules("lock-order, schema-drift").expect("valid");
        assert!(opts.keeps("lock-order"));
        assert!(opts.keeps("schema-drift"));
        assert!(!opts.keeps("no-panic-in-lib"));
        let err = LintOptions::with_rules("lock-order,no-such-rule").expect_err("invalid");
        assert!(err.contains("no-such-rule"), "{err}");
        assert!(LintOptions::with_rules(" , ").is_err());
    }
}
