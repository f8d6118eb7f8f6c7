//! NEVERMIND workspace benchmark.
//!
//! ```text
//! perfbench --workload trial-20k|plant-100k|locate-10k --seed N --seconds S
//!           --trace 0|1 [--size full|toy] [--out-dir DIR] [--rustc V] [--commit C]
//! ```
//!
//! A run derives its inputs from `--seed` (see [`Opts::input_seeds`]): about
//! `--seconds` worth of them, each a freshly seeded plant. With `--trace 0`
//! each input is set up (median reported as `setup_s`) and then put through
//! the workload's timed phase (median per input reported as `run_s`), and
//! every operation's output is checked. With `--trace 1` the first input's
//! timed phase runs once untraced and once inside the span recorder, and
//! the per-layer metrics are read off the span tree, which is written to
//! `DIR`. The last line of
//! standard output is `RESULT {json}`; `run.py` turns it into the final
//! result line.

mod checks;
mod host;
mod locate;
mod plant;
mod report;
mod stats;
mod trace;
mod training;
mod trial;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload scale: the benchmark's own size, or a toy size for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Seconds-long versions for the benchmark's own tests.
    Toy,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase repeats for.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Workload scale.
    pub size: Size,
    /// Shard / thread count handed to the libraries.
    pub shards: usize,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
    /// `rustc --version` of the build, as given by the runner.
    pub rustc: String,
    /// Source commit, as given by the runner.
    pub commit: String,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
            shards: host::nproc(),
            out_dir: PathBuf::from("."),
            rustc: "unknown".into(),
            commit: "unknown".into(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    };
                }
                "--size" => {
                    opts.size = match value.as_str() {
                        "full" => Size::Full,
                        "toy" => Size::Toy,
                        _ => return Err(bad("full or toy")),
                    };
                }
                "--out-dir" => opts.out_dir = PathBuf::from(value),
                "--rustc" => opts.rustc = value.clone(),
                "--commit" => opts.commit = value.clone(),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(opts)
    }

    /// The run's identity and host, as one JSON object.
    pub fn context_json(&self) -> String {
        use trace::json_str;
        format!(
            "{{\"workload\":{},\"seed\":{},\"size\":{},\"trace\":{},\"seconds\":{},\"nproc\":{},\"shards\":{},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
            json_str(&self.workload),
            self.seed,
            json_str(if self.size == Size::Full { "full" } else { "toy" }),
            u8::from(self.trace),
            self.seconds,
            host::nproc(),
            self.shards,
            json_str(&host::cpu_model()),
            json_str(&self.rustc),
            json_str(&self.commit),
        )
    }

    /// Seeds of the inputs a timed run processes: `seconds / nominal_s`
    /// of them (at least one), where `nominal_s` is one input's timed phase
    /// on the reference host at this size. The count depends on the
    /// arguments alone, so the same `--seed` and `--seconds` always process
    /// the same inputs. A traced run processes the first input only.
    pub fn input_seeds(&self, nominal_s: (f64, f64)) -> Vec<u64> {
        let nominal = if self.size == Size::Full { nominal_s.0 } else { nominal_s.1 };
        let n = if self.trace { 1 } else { ((self.seconds / nominal).floor() as usize).max(1) };
        let seeds: Vec<u64> = (0..n).map(|i| input_seed(self.seed, i)).collect();
        println!("inputs {seeds:?}");
        seeds
    }

    /// Run id carried by every span: workload, seed and process id.
    pub fn run_id(&self) -> String {
        format!("{}-seed{}-pid{}", self.workload, self.seed, std::process::id())
    }

    /// Writes the span file of a traced run and prints its summary;
    /// returns whether every root's children and self time add up.
    pub fn finish_trace(&self, t: &trace::Tracer) -> bool {
        let adds_up = t.print_summary();
        let path = self.out_dir.join(format!("trace-{}-seed{}.jsonl", self.workload, self.seed));
        match std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| t.write_jsonl(&path, &self.context_json()))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                println!("cannot write spans to {}: {e}", path.display());
                return false;
            }
        }
        adds_up
    }
}

/// Seed of a run's `i`-th input: SplitMix64 over the run seed and the
/// index, so nearby run seeds share no input.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("context {}", opts.context_json());
    let mut report = Report::default();
    let (steal0, total0) = host::host_ticks();
    let outcome = match opts.workload.as_str() {
        "trial-20k" => trial::run(&opts, &mut report),
        "plant-100k" => plant::run(&opts, &mut report),
        "locate-10k" => locate::run(&opts, &mut report),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (trial-20k, plant-100k, locate-10k)");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = outcome {
        // A pipeline error is a failed operation, reported like any other.
        report.checks.record(false, &format!("pipeline error: {e}"));
    }
    let (steal1, total1) = host::host_ticks();
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    report.note("host_steal_ratio", steal, "ratio", "lower", 1);
    if opts.trace {
        report.complete_layers();
    }
    report.print();
    ExitCode::SUCCESS
}
