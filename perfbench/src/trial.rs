//! `trial-20k`: the paper's operational protocol end to end.
//!
//! Timed: `run_proactive_trial_with` at 20k lines, 364 days and a 30-week
//! warm-up with the CLI `trial` predictor config (120 iterations, selection
//! row cap 8000, 1% budget), `shards = nproc`. Set-up is generating the
//! trial's plant once (`World::generate`); the trial itself generates it
//! again for each of its twin worlds.
//!
//! Traced: `run_proactive_trial_with` cannot be split from outside, so the
//! traced run drives a replica of its loop through the same public calls
//! (`World::generate`, `with_shards`, `step_day`, `SplitSpec::paper_like`,
//! `TicketPredictor::fit`, `WeeklyScorer`, `top_rows_sharded`,
//! `schedule_proactive_dispatch`) and must reproduce the untraced outcome
//! exactly. The fit is then replayed layer by layer (`training`).

use crate::checks::{outcome_is_sane, outcomes_equal};
use crate::report::{dslsim_layer, root_layer, scoring_layer, training_layer, Report};
use crate::trace::Tracer;
use crate::{stats, Opts, Size};
use nevermind::pipeline::{
    run_proactive_trial_with, ExperimentData, ProactiveOutcome, SplitSpec, TrialOptions,
};
use nevermind::predictor::{PredictorConfig, TicketPredictor};
use nevermind::{PipelineError, TelemetryConfig, WeeklyScorer};
use nevermind_dslsim::{LineId, SimConfig, World};
use std::time::Instant;

struct Shape {
    lines: usize,
    days: u32,
    warmup_weeks: u32,
    iterations: usize,
    selection_row_cap: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            lines: 20_000,
            days: 364,
            warmup_weeks: 30,
            iterations: 120,
            selection_row_cap: 8_000,
        },
        Size::Toy => Shape {
            lines: 800,
            days: 200,
            warmup_weeks: 20,
            iterations: 20,
            selection_row_cap: 2_000,
        },
    }
}

fn configs(seed: u64, size: Size) -> (SimConfig, PredictorConfig, Shape) {
    let s = shape(size);
    let sim = SimConfig { seed, n_lines: s.lines, days: s.days, ..SimConfig::default() };
    let predictor = PredictorConfig {
        iterations: s.iterations,
        budget_fraction: 0.01,
        selection_row_cap: s.selection_row_cap,
        ..PredictorConfig::default()
    };
    (sim, predictor, s)
}

/// Saturdays the policy ranks: days `d` in `[warm-up end, horizon)` with
/// `d % 7 == 6`.
fn policy_saturdays(s: &Shape) -> usize {
    (s.warmup_weeks * 7..s.days).filter(|d| d % 7 == 6).count()
}

fn untraced_trial(
    sim: &SimConfig,
    predictor: &PredictorConfig,
    s: &Shape,
    shards: usize,
) -> (f64, Result<ProactiveOutcome, PipelineError>) {
    let options = TrialOptions { shards, ..TrialOptions::default() };
    let start = Instant::now();
    let result = run_proactive_trial_with(sim.clone(), predictor, s.warmup_weeks, &options);
    (start.elapsed().as_secs_f64(), result.map(|r| r.outcome))
}

/// One input's timed phase on the reference host (2 cores), full and toy.
const NOMINAL_S: (f64, f64) = (14.5, 0.5);

/// Set-ups timed per input.
const SETUP_REPEATS: usize = 15;

/// Runs the workload, timed or traced.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), PipelineError> {
    let seeds = opts.input_seeds(NOMINAL_S);
    if opts.trace {
        let (sim, predictor_cfg, s) = configs(seeds[0], opts.size);
        return traced(opts, report, &sim, &predictor_cfg, &s);
    }

    let (mut setup, mut times, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut pooled = ProactiveOutcome {
        policy_start_day: 0,
        reactive_tickets: 0,
        proactive_tickets: 0,
        proactive_dispatches: 0,
        proactive_hits: 0,
        reactive_churn: 0,
        proactive_churn: 0,
    };
    for seed in seeds {
        let (sim, predictor_cfg, s) = configs(seed, opts.size);
        // Generating the plant takes tens of milliseconds, so it is
        // repeated to give the set-up median enough samples.
        for _ in 0..SETUP_REPEATS {
            let start = Instant::now();
            drop(World::generate(sim.clone()).with_shards(opts.shards));
            setup.push(start.elapsed().as_secs_f64());
        }
        let cpu0 = crate::host::process_cpu_s();
        let (secs, outcome) = untraced_trial(&sim, &predictor_cfg, &s, opts.shards);
        println!("input {seed}: run {secs:.3} s");
        times.push(secs);
        cpu.push(crate::host::process_cpu_s() - cpu0);
        let o = outcome?;
        report.checks.record(
            outcome_is_sane(&o, predictor_cfg.budget(s.lines), policy_saturdays(&s)),
            &format!("trial outcome {o:?} is consistent"),
        );
        pooled.reactive_tickets += o.reactive_tickets;
        pooled.proactive_tickets += o.proactive_tickets;
        pooled.proactive_dispatches += o.proactive_dispatches;
        pooled.proactive_hits += o.proactive_hits;
    }
    report.metric("run_s", stats::median(&times), times.len());
    report.metric("setup_s", stats::median(&setup), setup.len());
    report.metric("peak_rss_mib", crate::host::peak_rss_mib(), 1);
    report.note("run_cpu_s", stats::median(&cpu), "s", "lower", cpu.len());
    report.note("ticket_reduction", pooled.ticket_reduction(), "ratio", "higher", times.len());
    report.note(
        "dispatch_precision",
        pooled.dispatch_precision(),
        "ratio",
        "higher",
        pooled.proactive_dispatches,
    );
    Ok(())
}

fn traced(
    opts: &Opts,
    report: &mut Report,
    sim: &SimConfig,
    predictor_cfg: &PredictorConfig,
    s: &Shape,
) -> Result<(), PipelineError> {
    let (untraced_s, untraced) = untraced_trial(sim, predictor_cfg, s, opts.shards);
    let untraced = untraced?;

    let mut t = Tracer::on(opts.run_id());
    let replica = replica(&mut t, sim, predictor_cfg, s.warmup_weeks, opts.shards)?;
    report.checks.record(
        outcome_is_sane(&untraced, predictor_cfg.budget(s.lines), policy_saturdays(s))
            && outcomes_equal(&untraced, &replica.outcome),
        &format!("traced replica {:?} reproduces the trial {untraced:?}", replica.outcome),
    );

    let replay = crate::training::replay_fit(
        &mut t,
        &replica.train,
        &replica.split,
        predictor_cfg,
        &replica.predictor,
    );
    report.checks.record(replay.boost_matches, "replayed BStump::fit equals the fitted stumps");
    report.checks.record(replay.calibration_matches, "replayed PlattScale::fit equals the fit");
    println!("selection replay matches the fitted selected set: {}", replay.selection_matches);

    let adds_up = opts.finish_trace(&t);
    report.checks.record(adds_up, "span children plus unattributed time add up to each root");
    dslsim_layer(report, &t, s.lines);
    scoring_layer(
        report,
        &t,
        &replica.saturday_ms,
        s.lines,
        replica.dispatched,
        replica.retained_bytes,
    );
    training_layer(report, &t, &replay);
    root_layer(report, &t, "pipeline.trial", untraced_s);
    Ok(())
}

/// What the replica hands back besides its outcome: the training inputs
/// for the fit replay, and the weekly scoring counts.
struct Replica {
    outcome: ProactiveOutcome,
    train: ExperimentData,
    split: SplitSpec,
    predictor: TicketPredictor,
    saturday_ms: Vec<f64>,
    dispatched: usize,
    retained_bytes: usize,
}

/// `run_proactive_trial_with` with default options, rebuilt from the same
/// public calls inside a `pipeline.trial` root span. Telemetry and
/// provenance are skipped: both are inert while observability is off,
/// which is the timed trial's setting too.
fn replica(
    t: &mut Tracer,
    sim: &SimConfig,
    predictor_cfg: &PredictorConfig,
    warmup_weeks: u32,
    shards: usize,
) -> Result<Replica, PipelineError> {
    t.span("pipeline.trial", |t| {
        let policy_start_day = warmup_weeks * 7;
        let end_day = sim.days;

        let mut baseline_world =
            t.span("dslsim.generate", |_| World::generate(sim.clone()).with_shards(shards));
        while baseline_world.day() < end_day {
            t.span_in("dslsim.step_day", "baseline", |_| baseline_world.step_day());
        }
        let baseline = baseline_world.into_output();
        let reactive_tickets =
            baseline.customer_edge_tickets().filter(|x| x.day >= policy_start_day).count();
        let reactive_churn =
            baseline.churn_events.iter().filter(|c| c.day >= policy_start_day).count();

        let mut world =
            t.span("dslsim.generate", |_| World::generate(sim.clone()).with_shards(shards));
        while world.day() < policy_start_day {
            t.span_in("dslsim.step_day", "warmup", |_| world.step_day());
        }

        let mut train = ExperimentData {
            config: sim.clone(),
            topology: world.topology().clone(),
            output: world.output().clone(),
        };
        train.config.days = policy_start_day;
        let split = SplitSpec::paper_like(&train)?;
        let (predictor, _) =
            t.span("predictor.fit", |_| TicketPredictor::fit(&train, &split, predictor_cfg))?;

        let lines = world.topology().lines.clone();
        let budget = predictor_cfg.budget(lines.len());
        let mut saturday_ms = Vec::new();
        let mut dispatched = 0;
        let mut retained_bytes = 0;
        {
            let mut scorer = t.span("scoring.new", |_| {
                let mut scorer = WeeklyScorer::new(&predictor, &lines);
                scorer.set_shards(shards);
                let monitored: Vec<usize> = predictor
                    .selected_base()
                    .iter()
                    .take(TelemetryConfig::default().max_features)
                    .copied()
                    .collect();
                scorer.track_columns(&monitored);
                scorer
            });
            while world.day() < end_day {
                t.span_in("dslsim.step_day", "policy", |_| world.step_day());
                let day = world.day() - 1;
                if day % 7 != 6 {
                    continue;
                }
                let start = Instant::now();
                t.span("scoring.observe", |_| {
                    let out = world.output();
                    scorer.observe(&out.measurements, &out.tickets);
                });
                let ranking = t.span("scoring.rank_week", |_| scorer.rank_week(day));
                let to_dispatch: Vec<LineId> = t.span("ml.topk", |_| {
                    ranking
                        .top_rows_sharded(budget, shards)
                        .into_iter()
                        .map(|(k, _, _)| k.line)
                        .collect()
                });
                saturday_ms.push(start.elapsed().as_secs_f64() * 1e3);
                dispatched += to_dispatch.len();
                retained_bytes = retained_bytes.max(scorer.retained_bytes());
                t.span("dslsim.dispatch", |_| {
                    for line in to_dispatch {
                        world.schedule_proactive_dispatch(line, 2);
                    }
                });
            }
        }

        let out = world.into_output();
        let proactive: Vec<_> = out.notes.iter().filter(|n| n.proactive).collect();
        let outcome = ProactiveOutcome {
            policy_start_day,
            reactive_tickets,
            proactive_tickets: out
                .customer_edge_tickets()
                .filter(|x| x.day >= policy_start_day)
                .count(),
            proactive_dispatches: proactive.len(),
            proactive_hits: proactive.iter().filter(|n| n.disposition.is_some()).count(),
            reactive_churn,
            proactive_churn: out.churn_events.iter().filter(|c| c.day >= policy_start_day).count(),
        };
        Ok(Replica { outcome, train, split, predictor, saturday_ms, dispatched, retained_bytes })
    })
}
