//! `locate-10k`: the trouble locator (the paper's second component).
//!
//! Set-up simulates a 10k-line, 364-day plant with
//! `ExperimentData::simulate_sharded`. The timed phase runs
//! `TroubleLocator::fit` on the dispatches in `[30, 242)` with the CLI's 80
//! iterations, then `LocatorEvaluation::run` over `[242, 364)`.
//!
//! Check: every held-out dispatch's combined ranking lists every
//! disposition exactly once, with finite probabilities in descending order.
//! The traced run also replays the four major-location `BStump::fit`s on the
//! locator's own training rows and checks them against the fitted models.

use crate::checks::ranking_is_wellformed;
use crate::report::{
    boost_layer, cpu_per_wall, dslsim_layer, root_layer, wall, wall_percentile, Report,
};
use crate::trace::Tracer;
use crate::{stats, Opts, Size};
use nevermind::locator::{
    collect_dispatch_examples, LocatorConfig, LocatorEvaluation, TroubleLocator,
};
use nevermind::pipeline::ExperimentData;
use nevermind::PipelineError;
use nevermind_dslsim::disposition::MajorLocation;
use nevermind_dslsim::{SimConfig, World};
use nevermind_ml::boost::{BStump, BoostConfig};
use nevermind_ml::data::Dataset;
use std::time::Instant;

/// First day whose dispatches train the locator (as the CLI).
const FIT_FROM: u32 = 30;

struct Shape {
    lines: usize,
    days: u32,
    iterations: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape { lines: 10_000, days: 364, iterations: 80 },
        Size::Toy => Shape { lines: 4_000, days: 200, iterations: 10 },
    }
}

fn sim_config(s: &Shape, seed: u64) -> SimConfig {
    SimConfig { seed, n_lines: s.lines, days: s.days, ..SimConfig::default() }
}

/// The CLI's split point: training dispatches before two thirds of the
/// horizon, held-out ones after.
fn mid(s: &Shape) -> u32 {
    s.days * 2 / 3
}

/// Fits and evaluates the locator inside a `pipeline.locate` root span;
/// returns the wall and process CPU seconds, the locator and its
/// evaluation.
fn fit_and_evaluate(
    t: &mut Tracer,
    data: &ExperimentData,
    s: &Shape,
    config: &LocatorConfig,
) -> Result<(f64, f64, TroubleLocator, LocatorEvaluation), PipelineError> {
    let (start, cpu0) = (Instant::now(), crate::host::process_cpu_s());
    let (locator, eval) = t.span("pipeline.locate", |t| {
        let locator =
            t.span("locator.fit", |_| TroubleLocator::fit(data, FIT_FROM, mid(s), config))?;
        let eval =
            t.span("locator.evaluate", |_| LocatorEvaluation::run(&locator, data, mid(s), s.days));
        Ok::<_, PipelineError>((locator, eval))
    })?;
    Ok((start.elapsed().as_secs_f64(), crate::host::process_cpu_s() - cpu0, locator, eval))
}

/// Checks every held-out dispatch's combined ranking; each ranking call is
/// a light span.
fn check_rankings(
    t: &mut Tracer,
    report: &mut Report,
    data: &ExperimentData,
    s: &Shape,
    locator: &TroubleLocator,
) {
    t.span("pipeline.check", |t| {
        let examples = collect_dispatch_examples(&data.output.notes, mid(s), s.days);
        let ds = t.span("locator.encode_examples", |_| locator.encode_examples(data, &examples));
        for (i, e) in examples.iter().enumerate() {
            let ranked =
                t.span_light("locator.rank_combined", |_| locator.rank_combined(ds.x.row(i)));
            report.checks.record(
                ranking_is_wellformed(&ranked),
                &format!(
                    "dispatch to line {} on day {}: combined ranking well formed",
                    e.line.0, e.day
                ),
            );
        }
    });
}

/// Replays the four major-location one-vs-rest fits on the locator's
/// training rows and checks each against the fitted location model. The
/// locator exposes a location model only through a modeled disposition of
/// that location, so a location without one is timed but not compared.
fn replay_location_fits(
    t: &mut Tracer,
    report: &mut Report,
    data: &ExperimentData,
    s: &Shape,
    locator: &TroubleLocator,
    config: &LocatorConfig,
) {
    t.span("locator.replay", |t| {
        let examples = collect_dispatch_examples(&data.output.notes, FIT_FROM, mid(s));
        let ds = t.span("locator.encode_examples", |_| locator.encode_examples(data, &examples));
        let boost = BoostConfig {
            iterations: config.iterations,
            n_bins: config.n_bins,
            smoothing: None,
            parallel: true,
        };
        for loc in MajorLocation::ALL {
            let y: Vec<bool> = examples.iter().map(|e| e.disposition.location() == loc).collect();
            let train = Dataset::new(ds.x.clone(), y);
            let model = t.span("ml.boost", |_| BStump::fit(&train, &boost));
            let fitted = locator
                .modeled_dispositions()
                .iter()
                .find(|d| d.location() == loc)
                .and_then(|&d| locator.model_pair(d))
                .map(|(_, location_model, _)| location_model);
            if let Some(fitted) = fitted {
                report.checks.record(
                    fitted.stumps() == model.stumps(),
                    &format!(
                        "replayed {} location BStump::fit equals the fitted model",
                        loc.label()
                    ),
                );
            }
        }
    });
}

/// Simulates the plant through the public stepping API inside a
/// `pipeline.simulate` root span (what `simulate_sharded` does).
fn simulate_traced(t: &mut Tracer, config: SimConfig, shards: usize) -> ExperimentData {
    t.span("pipeline.simulate", |t| {
        let mut world =
            t.span("dslsim.generate", |_| World::generate(config.clone()).with_shards(shards));
        while world.day() < config.days {
            t.span("dslsim.step_day", |_| world.step_day());
        }
        let topology = world.topology().clone();
        ExperimentData { config, topology, output: world.into_output() }
    })
}

/// One input's timed phase on the reference host (2 cores), full and toy.
/// The full one read 7.1–10.0 s on a shared host; 7.0 makes a 30 s run
/// take four inputs, whose median evens out more of that host's noise than
/// three did.
const NOMINAL_S: (f64, f64) = (7.0, 0.5);

/// Runs the workload, timed or traced.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), PipelineError> {
    let s = shape(opts.size);
    let config = LocatorConfig { iterations: s.iterations, ..LocatorConfig::default() };
    let seeds = opts.input_seeds(NOMINAL_S);

    if opts.trace {
        let mut t = Tracer::on(opts.run_id());
        let data = simulate_traced(&mut t, sim_config(&s, seeds[0]), opts.shards);
        let (untraced_s, _, _, _) = fit_and_evaluate(&mut Tracer::off(), &data, &s, &config)?;
        let (_, _, locator, _) = fit_and_evaluate(&mut t, &data, &s, &config)?;
        check_rankings(&mut t, report, &data, &s, &locator);
        replay_location_fits(&mut t, report, &data, &s, &locator, &config);
        let adds_up = opts.finish_trace(&t);
        report.checks.record(adds_up, "span children plus unattributed time add up to each root");

        dslsim_layer(report, &t, s.lines);
        boost_layer(report, &t);
        let (fit, n) = wall(&t, "locator.fit");
        report.metric("locator.fit_s", fit, n);
        let models = 4 * (locator.modeled_dispositions().len() + MajorLocation::ALL.len());
        report.metric("locator.models_fitted", models as f64, 1);
        let (enc, n) = wall(&t, "locator.encode_examples");
        report.metric("locator.encode_examples_s", enc, n);
        let (p50, n) = wall_percentile(&t, "locator.rank_combined", 50.0, 1e6);
        report.metric("locator.rank_combined_us_p50", p50, n);
        let (p99, n) = wall_percentile(&t, "locator.rank_combined", 99.0, 1e6);
        report.metric("locator.rank_combined_us_p99", p99, n);
        let (cpw, n) = cpu_per_wall(&t, &["locator.fit", "locator.evaluate"]);
        report.metric("locator.cpu_per_wall", cpw, n);
        root_layer(report, &t, "pipeline.locate", untraced_s);
        return Ok(());
    }

    let (mut setup, mut times, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut located, mut held_out) = (0, 0);
    for seed in seeds {
        let start = Instant::now();
        let data = ExperimentData::simulate_sharded(sim_config(&s, seed), opts.shards);
        setup.push(start.elapsed().as_secs_f64());
        let (secs, cpu_s, locator, eval) =
            fit_and_evaluate(&mut Tracer::off(), &data, &s, &config)?;
        println!("input {seed}: run {secs:.3} s");
        times.push(secs);
        cpu.push(cpu_s);
        located +=
            eval.per_example.iter().filter(|e| e.true_location == e.predicted_location).count();
        held_out += eval.per_example.len();
        check_rankings(&mut Tracer::off(), report, &data, &s, &locator);
    }
    report.metric("run_s", stats::median(&times), times.len());
    report.metric("setup_s", stats::median(&setup), setup.len());
    report.metric("peak_rss_mib", crate::host::peak_rss_mib(), 1);
    report.note("run_cpu_s", stats::median(&cpu), "s", "lower", cpu.len());
    report.note("location_accuracy", located as f64 / held_out as f64, "ratio", "higher", held_out);
    Ok(())
}
