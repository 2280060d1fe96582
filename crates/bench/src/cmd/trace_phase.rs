//! Export a per-node execution timeline of a force phase as Chrome
//! trace-event JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! The Gantt view is the per-node form of the paper's breakdown figure:
//! colored spans are local work and communication overhead; the gaps are
//! idle time. Comparing `--variant dpa` against `--variant blocking` makes
//! the latency-tolerance story visible span by span.
//!
//! Usage: `bench trace_phase [--variant dpa|base|caching|blocking]`. One
//! size; `--quick` is accepted so the verify recipe reads the same for
//! every artifact.

use bench::cli::Args;
use bench::*;
use dpa_core::synth::{SynthApp, SynthParams, SynthWorld};
use dpa_core::{run_phase_traced, DpaConfig};
use std::io;
use std::path::Path;

pub fn run(args: &Args) -> io::Result<i32> {
    let variant = args.value("--variant").unwrap_or("dpa");
    let cfg = match variant {
        "dpa" => DpaConfig::dpa(16),
        "base" => DpaConfig::dpa_base(16),
        "caching" => DpaConfig::caching(),
        "blocking" => DpaConfig::blocking(),
        other => {
            eprintln!("error: unknown variant {other:?} (expected dpa|base|caching|blocking)");
            return Ok(2);
        }
    };

    let nodes = 8u16;
    let world = SynthWorld::build(SynthParams {
        nodes,
        lists_per_node: 48,
        list_len: 40,
        remote_fraction: 0.5,
        shared_fraction: 0.5,
        record_bytes: 32,
        work_ns: 900,
        seed: 0x7ACE,
    });

    let (report, trace) = run_phase_traced(
        nodes,
        paper_net(),
        cfg.clone(),
        |i| SynthApp::new(world.clone(), i, world.work_ns),
        |_, _| {},
        1 << 20,
    );
    assert!(report.completed);

    let file = format!("trace_{variant}.json");
    write_result(Path::new(RESULTS_DIR), &file, &trace.to_chrome_json())?;
    let (l, o, i) = breakdown_pct(&report.stats);
    println!(
        "{}: makespan {}, {} spans ({} dropped), local/ovh/idle = {l:.1}/{o:.1}/{i:.1}%",
        cfg.describe(),
        report.makespan(),
        trace.spans().len(),
        trace.dropped,
    );
    println!("open {RESULTS_DIR}/{file} in chrome://tracing or ui.perfetto.dev");
    Ok(0)
}
