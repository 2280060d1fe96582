//! The repo's benchmark of record — see `benchmark/README.md`.
//!
//! ```text
//! dpa-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result line last
//!               [--smoke]                                          (any command)
//! dpa-benchmark run   [--seed N] [--workload NAME] [--seconds S]   every end-to-end metric
//! dpa-benchmark trace [--seed N] [--workload NAME] [--seconds S]   every per-layer metric + trace files
//! dpa-benchmark aa    [--seed N] [--workload NAME] [--seconds S]   `run` twice, check agreement
//! ```

use dpa_benchmark::harness::{self, RunArgs};
use dpa_benchmark::report;
use dpa_benchmark::spec;
use dpa_benchmark::workloads::Profile;
use std::process::ExitCode;

/// Seconds one run measures for when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// The seed of record.
const DEFAULT_SEED: u64 = 1997;

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    profile: Profile,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        profile: Profile::Full,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !spec::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (expected one of {:?})",
                        spec::WORKLOADS
                    ));
                }
                cli.workload = Some(w.clone());
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err(format!("--seconds {} is outside (0, 60]", cli.seconds));
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => cli.profile = Profile::Smoke,
            "run" | "trace" | "aa" if cli.command.is_none() => cli.command = Some(a.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    // The engines under test read these; a benchmark number taken with
    // either set would silently describe a different engine.
    for var in ["DPA_SIM_THREADS", "DPA_SIM_QUEUE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("error: {var} is set; the benchmark pins the engine itself — unset it");
            return ExitCode::from(2);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<String> = match &cli.workload {
        Some(w) => vec![w.clone()],
        None => spec::WORKLOADS.iter().map(|w| w.to_string()).collect(),
    };
    let sweep = report::Sweep {
        workloads,
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.profile == Profile::Smoke,
    };
    let ok = match cli.command.as_deref() {
        Some("run") => report::run_all(&sweep, false),
        Some("trace") => report::run_all(&sweep, true),
        Some("aa") => report::aa(&sweep),
        _ => {
            let Some(workload) = cli.workload else {
                eprintln!(
                    "error: give a command (run, trace, aa) or --workload NAME for a single run"
                );
                return ExitCode::from(2);
            };
            let run = RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                profile: cli.profile,
            };
            let outcome = match harness::run(&run) {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for note in &outcome.notes {
                eprintln!("FAILED CHECK: {note}");
            }
            let table = if run.trace {
                spec::PER_LAYER
            } else {
                spec::END_TO_END
            };
            println!("{}", outcome.to_json(table, run.trace).to_line());
            // A run that measured is a run that exits 0: failed checks are
            // in `correct`/`failed`, where the reader counts them.
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
