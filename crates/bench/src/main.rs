//! `bench <subcommand> [--smoke|--quick] [options]` — every table, figure
//! and sweep of the reproduction behind one binary. The subcommand table
//! below is the whole surface: what exists, which run scales each has a
//! size for, and which valued options it takes.

use bench::cli::{parse, Accepts, Args, Scale};
use std::io;

mod cmd {
    pub mod calibrate;
    pub mod dst;
    pub mod fig_breakdown;
    pub mod fig_cache;
    pub mod fig_clustered;
    pub mod fig_crossover;
    pub mod fig_differential;
    pub mod fig_graph;
    pub mod fig_scaling;
    pub mod fig_stripsize;
    pub mod smp_tiling;
    pub mod table1_exec_times;
    pub mod table_thread_stats;
    pub mod trace_phase;
}

/// A subcommand: `run` returns the process exit code (0 green, 1 a gate or
/// verdict failed, 2 bad input) or the I/O error that kept it from writing
/// its artifact.
struct Cmd {
    name: &'static str,
    accepts: Accepts,
    run: fn(&Args) -> io::Result<i32>,
}

const QUICK: &[Scale] = &[Scale::Quick];
const SMOKE_QUICK: &[Scale] = &[Scale::Smoke, Scale::Quick];

/// A subcommand that takes no valued options.
const fn plain(
    name: &'static str,
    scales: &'static [Scale],
    run: fn(&Args) -> io::Result<i32>,
) -> Cmd {
    Cmd {
        name,
        accepts: Accepts {
            scales,
            options: &[],
        },
        run,
    }
}

const CMDS: &[Cmd] = &[
    plain("table1_exec_times", QUICK, cmd::table1_exec_times::run),
    plain("fig_breakdown", SMOKE_QUICK, cmd::fig_breakdown::run),
    plain("fig_stripsize", QUICK, cmd::fig_stripsize::run),
    plain("table_thread_stats", QUICK, cmd::table_thread_stats::run),
    plain("fig_scaling", QUICK, cmd::fig_scaling::run),
    plain("fig_crossover", QUICK, cmd::fig_crossover::run),
    plain("fig_clustered", QUICK, cmd::fig_clustered::run),
    plain("fig_cache", QUICK, cmd::fig_cache::run),
    plain("fig_differential", SMOKE_QUICK, cmd::fig_differential::run),
    plain("fig_graph", SMOKE_QUICK, cmd::fig_graph::run),
    Cmd {
        name: "trace_phase",
        accepts: Accepts {
            scales: QUICK,
            options: &["--variant"],
        },
        run: cmd::trace_phase::run,
    },
    plain("calibrate", QUICK, cmd::calibrate::run),
    Cmd {
        name: "dst",
        accepts: Accepts {
            scales: SMOKE_QUICK,
            options: &["--workload", "--replay"],
        },
        run: cmd::dst::run,
    },
    plain("smp_tiling", &[], cmd::smp_tiling::run),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(found) = argv
        .first()
        .and_then(|name| CMDS.iter().find(|c| c.name == name))
    else {
        match argv.first() {
            Some(name) => eprintln!("error: unknown subcommand {name:?}"),
            None => eprintln!("error: no subcommand given"),
        }
        eprintln!("usage: bench <subcommand> [--smoke | --quick] [options], one of:");
        for c in CMDS {
            eprintln!("  {}", c.accepts.synopsis(c.name));
        }
        std::process::exit(2);
    };
    let code = match parse(&argv[1..], &found.accepts) {
        Err(e) => {
            let synopsis = found.accepts.synopsis(found.name);
            eprintln!("error: {e}\nusage: bench {synopsis}");
            2
        }
        Ok(args) => (found.run)(&args).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", found.name);
            1
        }),
    };
    std::process::exit(code);
}
