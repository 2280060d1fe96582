//! **Thread-statistics table** — the paper tabulates, per application:
//! static thread counts (from the compiler), the maximum number of
//! outstanding (aligned) threads, maximum outstanding requests, and the
//! memory DPA trades for latency tolerance (saved thread state + renamed
//! objects). This binary regenerates all of those from runtime counters,
//! plus the static template counts of the bundled Mini-ICC kernels.
//!
//! Run with `--quick` for a reduced problem size.

use bench::cli::Args;
use bench::*;
use dpa_compiler::compile_source;
use dpa_core::DpaConfig;
use sim_net::RunStats;
use std::io;

fn print_runtime_rows(
    app: &str,
    strip: usize,
    s: &RunStats,
    points: &mut Vec<ExpPoint>,
    p: u16,
    ns: u64,
) {
    let row = |k: &str, v: u64| println!("    {k:<28} {v:>12}");
    println!("  {app} (strip {strip}, P = {p}):");
    row("threads created", s.user_total("threads_created"));
    row("threads aligned (total)", s.user_total("threads_aligned"));
    row(
        "max aligned threads/node",
        s.user_max("peak_aligned_threads"),
    );
    row("max map keys/node", s.user_max("peak_map_keys"));
    row(
        "max outstanding reqs/node",
        s.user_max("peak_pending_requests"),
    );
    row("requests issued", s.user_total("requests_issued"));
    row("request messages", s.user_total("request_msgs"));
    row("reply messages", s.user_total("reply_msgs"));
    row(
        "thread-state peak bytes/node",
        s.user_max("thread_state_peak_bytes"),
    );
    row("renamed peak bytes/node", s.user_max("renamed_peak_bytes"));
    for (path, entries, msgs) in [
        ("request", "request_entries", "request_msgs"),
        ("reply", "reply_entries", "reply_msgs"),
        ("update", "update_entries", "update_msgs"),
    ] {
        println!(
            "    {:<28} {:>12.2}",
            format!("{path} agg factor"),
            s.user_ratio(entries, msgs)
        );
    }
    points.push(
        ExpPoint::new(
            "table_thread_stats",
            app,
            &format!("strip={strip}"),
            p,
            ns,
            s,
        )
        .with("peak_aligned", s.user_max("peak_aligned_threads") as f64)
        .with("peak_pending", s.user_max("peak_pending_requests") as f64)
        .with_agg_factors(s),
    );
}

pub fn run(args: &Args) -> io::Result<i32> {
    let sizes = Sizes::at(args.scale);
    let p: u16 = 16;
    let mut points = Vec::new();

    println!("== Thread statistics (runtime) ==");
    for strip in [50usize, 300] {
        for app in PaperApp::BOTH {
            let r = app.world(sizes, p).run(DpaConfig::dpa(strip));
            print_runtime_rows(app.name(), strip, &r.stats, &mut points, p, r.makespan_ns());
        }
    }

    println!("\n== Static thread structure (compiler) ==");
    let kernels = [
        (
            "treewalk",
            "struct T { l: T*; r: T*; v: int; }
             fn sum(t: T*) -> int {
               if (t == null) { return 0; }
               let a: int = 0;
               let b: int = 0;
               conc { a = sum(t->l); b = sum(t->r); }
               return a + b + t->v;
             }",
        ),
        (
            "listsum",
            "struct Node { val: int; next: Node*; }
             fn lsum(n: Node*) -> int {
               let acc: int = 0;
               while (n != null) {
                 acc = acc + n->val;
                 n = n->next;
               }
               return acc;
             }",
        ),
        (
            "bh_kernel",
            "struct Cell { mass: float; cx: float; cy: float; cz: float;
                           size: float; c0: Cell*; c1: Cell*; }
             fn force(c: Cell*, px: float, py: float, pz: float) -> float {
               if (c == null) { return 0.0; }
               let dx: float = c->cx - px;
               let dy: float = c->cy - py;
               let dz: float = c->cz - pz;
               let d2: float = dx*dx + dy*dy + dz*dz + 0.01;
               if (c->size * c->size < d2) {
                 return c->mass / d2;
               }
               let a: float = 0.0;
               let b: float = 0.0;
               conc {
                 a = force(c->c0, px, py, pz);
                 b = force(c->c1, px, py, pz);
               }
               return a + b;
             }",
        ),
    ];
    println!(
        "  {:<12} {:>10} {:>14} {:>12} {:>12}",
        "kernel", "templates", "demand sites", "fork sites", "call sites"
    );
    for (name, src) in kernels {
        let prog = compile_source(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for st in &prog.stats {
            println!(
                "  {:<12} {:>10} {:>14} {:>12} {:>12}",
                format!("{name}/{}", st.name),
                st.templates,
                st.demand_sites,
                st.fork_sites,
                st.call_sites
            );
        }
    }

    dump_json("table_thread_stats", &points)?;
    Ok(0)
}
