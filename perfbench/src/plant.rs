//! `plant-100k`: the Saturday re-rank of a large plant, with no training in
//! the timed phase.
//!
//! Set-up fits the predictor (CLI `trial` config) on `SimConfig::small`.
//! The timed phase generates a 100k-line, 364-day world and drives the
//! policy loop itself: it steps every day, and every Saturday from week 30
//! calls `WeeklyScorer::observe` → `rank_week` → `top_rows_sharded(budget)`
//! → `World::schedule_proactive_dispatch`. The Saturday latency is timed
//! from `observe` to the top-`B` list.
//!
//! Checks: every Saturday's list is well formed, and after the timed phase
//! the last Saturday's list equals the independent batch path
//! `TicketPredictor::rank(.., &[day])` over the world's own logs (moved out
//! of the world, not copied; peak memory is read before the check).

use crate::checks::{top_list_is_wellformed, top_lists_equal, TopRow};
use crate::report::{dslsim_layer, root_layer, scoring_layer, training_layer, Report};
use crate::trace::Tracer;
use crate::{stats, Opts, Size};
use nevermind::pipeline::{ExperimentData, SplitSpec};
use nevermind::predictor::{PredictorConfig, TicketPredictor};
use nevermind::{PipelineError, WeeklyScorer};
use nevermind_dslsim::{SimConfig, World};
use std::time::Instant;

struct Shape {
    fit: SimConfig,
    lines: usize,
    days: u32,
    warmup_weeks: u32,
    iterations: usize,
    selection_row_cap: usize,
}

fn shape(size: Size, seed: u64) -> Shape {
    match size {
        Size::Full => Shape {
            fit: SimConfig::small(seed),
            lines: 100_000,
            days: 364,
            warmup_weeks: 30,
            iterations: 120,
            selection_row_cap: 8_000,
        },
        Size::Toy => Shape {
            fit: SimConfig { n_lines: 600, days: 180, ..SimConfig::small(seed) },
            lines: 1_500,
            days: 140,
            warmup_weeks: 14,
            iterations: 20,
            selection_row_cap: 2_000,
        },
    }
}

fn predictor_config(s: &Shape) -> PredictorConfig {
    PredictorConfig {
        iterations: s.iterations,
        budget_fraction: 0.01,
        selection_row_cap: s.selection_row_cap,
        ..PredictorConfig::default()
    }
}

/// Simulates the small training plant and fits the predictor on it.
fn setup(
    t: &mut Tracer,
    s: &Shape,
    config: &PredictorConfig,
    shards: usize,
) -> Result<(ExperimentData, SplitSpec, TicketPredictor), PipelineError> {
    t.span("pipeline.setup", |t| {
        let data =
            t.span("dslsim.simulate", |_| ExperimentData::simulate_sharded(s.fit.clone(), shards));
        let split = SplitSpec::paper_like(&data)?;
        let (predictor, _) =
            t.span("predictor.fit", |_| TicketPredictor::fit(&data, &split, config))?;
        Ok((data, split, predictor))
    })
}

/// One timed phase's results.
struct PlantRun {
    run_s: f64,
    cpu_s: f64,
    saturday_ms: Vec<f64>,
    world: World,
    last_day: u32,
    last_top: Vec<TopRow>,
    dispatched: usize,
    retained_bytes: usize,
}

/// Generates the plant and drives the weekly policy loop over it, checking
/// each Saturday's list.
fn drive(
    t: &mut Tracer,
    report: &mut Report,
    s: &Shape,
    seed: u64,
    predictor: &TicketPredictor,
    budget: usize,
    shards: usize,
) -> PlantRun {
    let (start, cpu0) = (Instant::now(), crate::host::process_cpu_s());
    let policy_start_day = s.warmup_weeks * 7;
    let config = SimConfig { seed, n_lines: s.lines, days: s.days, ..SimConfig::default() };
    let mut run = t.span("pipeline.plant", |t| {
        let mut world = t.span("dslsim.generate", |_| World::generate(config).with_shards(shards));
        let lines = world.topology().lines.clone();
        let mut scorer = WeeklyScorer::new(predictor, &lines);
        scorer.set_shards(shards);
        let mut saturday_ms = Vec::new();
        let (mut last_day, mut last_top) = (0, Vec::new());
        let (mut dispatched, mut retained_bytes) = (0, 0);
        while world.day() < s.days {
            let phase = if world.day() < policy_start_day { "warmup" } else { "policy" };
            t.span_in("dslsim.step_day", phase, |_| world.step_day());
            let day = world.day() - 1;
            if day % 7 != 6 || day < policy_start_day {
                continue;
            }
            let saturday = Instant::now();
            t.span("scoring.observe", |_| {
                let out = world.output();
                scorer.observe(&out.measurements, &out.tickets);
            });
            let ranking = t.span("scoring.rank_week", |_| scorer.rank_week(day));
            let top = t.span("ml.topk", |_| ranking.top_rows_sharded(budget, shards));
            saturday_ms.push(saturday.elapsed().as_secs_f64() * 1e3);
            report.checks.record(
                top_list_is_wellformed(&top, budget, lines.len(), day),
                &format!("Saturday {day}: top-{budget} list is well formed"),
            );
            dispatched += top.len();
            retained_bytes = retained_bytes.max(scorer.retained_bytes());
            t.span("dslsim.dispatch", |_| {
                for (key, _, _) in &top {
                    world.schedule_proactive_dispatch(key.line, 2);
                }
            });
            (last_day, last_top) = (day, top);
        }
        PlantRun {
            run_s: 0.0,
            cpu_s: 0.0,
            saturday_ms,
            world,
            last_day,
            last_top,
            dispatched,
            retained_bytes,
        }
    });
    run.run_s = start.elapsed().as_secs_f64();
    run.cpu_s = crate::host::process_cpu_s() - cpu0;
    run
}

/// Whether the run's last Saturday list equals the batch ranking of the
/// same day over the world's logs.
fn matches_batch(
    run: PlantRun,
    s: &Shape,
    seed: u64,
    predictor: &TicketPredictor,
    budget: usize,
    shards: usize,
) -> bool {
    let topology = run.world.topology().clone();
    let data = ExperimentData {
        config: SimConfig { seed, n_lines: s.lines, days: s.days, ..SimConfig::default() },
        topology,
        output: run.world.into_output(),
    };
    let reference = predictor.rank(&data, &[run.last_day]).top_rows_sharded(budget, shards);
    top_lists_equal(&run.last_top, &reference)
}

/// One input's timed phase on the reference host (2 cores), full and toy.
const NOMINAL_S: (f64, f64) = (11.0, 0.5);

/// Runs the workload, timed or traced.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), PipelineError> {
    let seeds = opts.input_seeds(NOMINAL_S);
    if opts.trace {
        return traced(opts, report, seeds[0]);
    }

    let (mut setup_times, mut times, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut saturday_ms = Vec::new();
    let (mut dispatches, mut hits) = (0, 0);
    let mut last: Option<(PlantRun, TicketPredictor, Shape, u64)> = None;
    for seed in seeds {
        // One world at a time: free the previous input's before generating.
        drop(last.take());
        let s = shape(opts.size, seed);
        let config = predictor_config(&s);
        let start = Instant::now();
        let (_, _, predictor) = setup(&mut Tracer::off(), &s, &config, opts.shards)?;
        setup_times.push(start.elapsed().as_secs_f64());
        let budget = config.budget(s.lines);
        let run = drive(&mut Tracer::off(), report, &s, seed, &predictor, budget, opts.shards);
        println!("input {seed}: run {:.3} s", run.run_s);
        times.push(run.run_s);
        cpu.push(run.cpu_s);
        saturday_ms.extend_from_slice(&run.saturday_ms);
        for note in run.world.output().notes.iter().filter(|n| n.proactive) {
            dispatches += 1;
            hits += usize::from(note.disposition.is_some());
        }
        last = Some((run, predictor, s, seed));
    }
    report.metric("run_s", stats::median(&times), times.len());
    report.metric("setup_s", stats::median(&setup_times), setup_times.len());
    report.metric("peak_rss_mib", crate::host::peak_rss_mib(), 1);
    report.note("run_cpu_s", stats::median(&cpu), "s", "lower", cpu.len());
    report.note(
        "dispatch_precision",
        hits as f64 / dispatches as f64,
        "ratio",
        "higher",
        dispatches,
    );
    report.note("week_rank_ms_p50", stats::median(&saturday_ms), "ms", "lower", saturday_ms.len());
    let (run, predictor, s, seed) = last.expect("at least one input ran");
    let budget = predictor_config(&s).budget(s.lines);
    let ok = matches_batch(run, &s, seed, &predictor, budget, opts.shards);
    report.checks.record(ok, "last Saturday's list equals TicketPredictor::rank");
    Ok(())
}

fn traced(opts: &Opts, report: &mut Report, seed: u64) -> Result<(), PipelineError> {
    let s = shape(opts.size, seed);
    let config = predictor_config(&s);
    let budget = config.budget(s.lines);
    let mut t = Tracer::on(opts.run_id());
    let (data, split, predictor) = setup(&mut t, &s, &config, opts.shards)?;
    let replay = crate::training::replay_fit(&mut t, &data, &split, &config, &predictor);
    drop(data);
    report.checks.record(replay.boost_matches, "replayed BStump::fit equals the fitted stumps");
    report.checks.record(replay.calibration_matches, "replayed PlattScale::fit equals the fit");
    println!("selection replay matches the fitted selected set: {}", replay.selection_matches);

    let untraced = drive(&mut Tracer::off(), report, &s, seed, &predictor, budget, opts.shards);
    let untraced_s = untraced.run_s;
    drop(untraced);
    let run = drive(&mut t, report, &s, seed, &predictor, budget, opts.shards);
    let adds_up = opts.finish_trace(&t);
    report.checks.record(adds_up, "span children plus unattributed time add up to each root");
    dslsim_layer(report, &t, s.lines);
    scoring_layer(report, &t, &run.saturday_ms, s.lines, run.dispatched, run.retained_bytes);
    training_layer(report, &t, &replay);
    root_layer(report, &t, "pipeline.plant", untraced_s);
    let ok = matches_batch(run, &s, seed, &predictor, budget, opts.shards);
    report.checks.record(ok, "last Saturday's list equals TicketPredictor::rank");
    Ok(())
}
