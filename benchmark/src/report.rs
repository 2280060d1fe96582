//! The multi-workload commands: `run`, `trace` and `aa`.
//!
//! Each workload executes in a child process of its own (this binary, in
//! single-run mode), so `peak_rss_mb` is per workload and one workload's
//! heap cannot warm another's. The parent only spawns, waits, reads each
//! child's result line, prints the table and writes `out/report.json`.

use crate::json::Json;
use crate::spec::{self, Better, MetricSpec};
use crate::workloads::WORLD_SEED;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What a multi-workload command runs.
pub struct Sweep {
    /// Workloads, in run order.
    pub workloads: Vec<String>,
    /// `--seed`.
    pub seed: u64,
    /// Seconds each run measures for.
    pub seconds: f64,
    /// `--smoke` sizes.
    pub smoke: bool,
}

/// Where reports and traces go: `benchmark/out` from the repo root, `out`
/// from inside `benchmark/`.
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    // Best effort: a failed write is reported where the file is written.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Run one workload in a child process and parse its result line.
fn run_child(sweep: &Sweep, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &sweep.seed.to_string()])
        .args([
            "--seconds",
            &sweep.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if sweep.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result"))?;
    Json::parse(line).map_err(|e| format!("{workload} result line: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn tool_version(tool: &str, args: &[&str]) -> String {
    Command::new(tool)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were taken.
fn environment(sweep: &Sweep, trace: bool) -> Json {
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("rustc", Json::str(tool_version("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(sweep.seed as f64)),
        ("world_seed", Json::Num(WORLD_SEED as f64)),
        ("seconds", Json::Num(sweep.seconds)),
        (
            "profile",
            Json::str(if sweep.smoke { "smoke" } else { "full" }),
        ),
        ("trace", Json::Bool(trace)),
    ])
}

/// Run every workload of `sweep`; `Ok` maps workload → result.
fn collect(sweep: &Sweep, trace: bool) -> Result<Vec<(String, Json)>, String> {
    let mut results = Vec::new();
    for w in &sweep.workloads {
        eprintln!(
            "[{w}] running ({} s, seed {}, trace {})",
            sweep.seconds, sweep.seed, trace as u8
        );
        results.push((w.clone(), run_child(sweep, w, trace)?));
    }
    Ok(results)
}

fn print_table(results: &[(String, Json)], table: &[MetricSpec]) {
    print!("{:<38} {:>9}", "metric", "unit");
    for (w, _) in results {
        print!(" {w:>14}");
    }
    println!();
    for m in table {
        print!("{:<38} {:>9}", m.name, m.unit);
        for (_, r) in results {
            match metric_value(r, m.name) {
                Some(v) if v.abs() >= 1e6 => print!(" {v:>14.0}"),
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    for key in ["attempted", "failed"] {
        print!("{key:<38} {:>9}", "count");
        for (_, r) in results {
            print!(
                " {:>14}",
                r.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
            );
        }
        println!();
    }
}

fn all_correct(results: &[(String, Json)]) -> bool {
    results.iter().all(|(w, r)| {
        let ok = r.get("correct") == Some(&Json::Bool(true))
            && r.get("failed").and_then(Json::as_f64) == Some(0.0);
        if !ok {
            eprintln!("[{w}] FAILED its output checks");
        }
        ok
    })
}

/// `run` (or `trace`): every workload, the table, and `out/report.json`.
/// Returns whether every workload ran and passed its checks.
pub fn run_all(sweep: &Sweep, trace: bool) -> bool {
    let results = match collect(sweep, trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    print_table(
        &results,
        if trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        },
    );
    let report = Json::obj([
        ("environment", environment(sweep, trace)),
        ("workloads", Json::Obj(results.clone())),
    ]);
    let path = out_dir().join(if trace {
        "report-trace.json"
    } else {
        "report.json"
    });
    match std::fs::write(&path, report.to_pretty()) {
        Ok(()) => eprintln!("[wrote {}]", path.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            return false;
        }
    }
    all_correct(&results)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `aa`: run the sweep twice and check the two agree — exactly on the
/// counted metrics, within each metric's own bound (either direction) on
/// the timed ones.
pub fn aa(sweep: &Sweep) -> bool {
    let (first, second) = match (collect(sweep, false), collect(sweep, false)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    let mut ok = all_correct(&first) & all_correct(&second);
    println!(
        "{:<14} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        for m in spec::END_TO_END {
            let (Some(x), Some(y)) = (metric_value(a, m.name), metric_value(b, m.name)) else {
                println!("{w:<14} {:<26} missing", m.name);
                ok = false;
                continue;
            };
            let exact = spec::EXACT.contains(&m.name);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let diff = worsening(m, x, y);
            let agree = if exact { x == y } else { diff.abs() <= bound };
            ok &= agree;
            println!(
                "{w:<14} {:<26} {x:>16.6} {y:>16.6} {:>8.2}% {:>7}  {}",
                m.name,
                100.0 * diff,
                if exact {
                    "exact".into()
                } else {
                    format!("{:.0}%", 100.0 * bound)
                },
                if agree { "ok" } else { "DISAGREE" }
            );
        }
    }
    println!("{}", if ok { "aa: PASS" } else { "aa: FAIL" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_direction() {
        let lower = spec::find("setup_s").unwrap();
        let higher = spec::find("events_per_s").unwrap();
        assert!((worsening(lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 110.0) < 0.0);
    }
}
