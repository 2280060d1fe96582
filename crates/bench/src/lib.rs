//! # bench — experiment harness regenerating the paper's tables & figures
//!
//! One binary, `bench <subcommand> [--smoke|--quick]`, one subcommand per
//! artifact (see `DESIGN.md`'s experiment index):
//!
//! | subcommand | artifact |
//! |---|---|
//! | `table1_exec_times` | Table 1: DPA(50) vs Caching execution times, P = 1..64 |
//! | `fig_breakdown` | breakdown figure: idle/overhead/local per optimization level |
//! | `fig_stripsize` | strip-size figure: sensitivity on 16 nodes |
//! | `table_thread_stats` | thread-statistics table: threads / requests / memory |
//! | `fig_scaling` | speedup curves, naive blocking, placement ablation |
//! | `fig_crossover` | extension: scheme crossovers vs remote/shared fraction |
//! | `fig_clustered` | extension: non-uniform inputs, uniform vs adaptive FMM |
//! | `fig_cache` | extension: bounded-cache (FIFO/LRU) baseline ablation |
//! | `fig_differential` | extension: differential re-alignment vs from-scratch |
//! | `fig_graph` | extension: hot-hub crossover, replication-win gates |
//! | `trace_phase` | extension: per-node Gantt timeline (Chrome/Perfetto JSON) |
//! | `dst` | deterministic-simulation-testing sweep and corpus replay |
//! | `smp_tiling` | host-side: tiled vs scattered task order on real threads |
//! | `calibrate` | cost-model calibration dump |
//!
//! Every subcommand runs its apps through the family runners of
//! [`apps::driver`] and reads the one [`Run`] they return. Shared here: the
//! argument parser ([`cli`]), paper-scale workload builders, the paper's
//! two applications as one loop variable ([`PaperApp`]), row formatting,
//! and JSON result dumping (consumed when updating `EXPERIMENTS.md`). The
//! DST workload table lives in [`dst`]; the benchmark of record is the
//! separate `benchmark/` workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod dst;
pub mod service;

use apps::afmm_dist::AfmmWorld;
use apps::bh_dist::{BhCost, BhWorld};
use apps::driver::{run_afmm, run_bh, run_fmm, Phases, Run};
use apps::fmm_dist::{FmmCost, FmmWorld};
use cli::Scale;
use dpa_core::invariant::{check_completed, NodeSnapshot};
use dpa_core::{DpaConfig, DstOptions};
use nbody::bh::BhParams;
use nbody::cx::Cx;
use nbody::distrib::{plummer, uniform_square};
use nbody::fmm::FmmParams;
use sim_net::{NetConfig, RunStats};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The paper's Barnes-Hut problem size.
pub const PAPER_BH_BODIES: usize = 16_384;
/// The paper's FMM problem size.
pub const PAPER_FMM_PARTICLES: usize = 32_768;
/// The paper's FMM term count.
pub const PAPER_FMM_TERMS: usize = 29;
/// Octree leaf capacity for the paper-scale Barnes-Hut worlds.
pub const BH_LEAF_CAP: usize = 1;
/// The paper times 4 Barnes-Hut steps; we time one force phase and scale.
pub const PAPER_BH_STEPS: u64 = 4;

/// Standard seed for the paper-scale worlds.
pub const SEED: u64 = 1997;

/// Build a Barnes-Hut world of `bodies` Plummer-distributed bodies.
pub fn bh_world_sized(bodies: usize, nodes: u16) -> Arc<BhWorld> {
    BhWorld::build(
        plummer(bodies, SEED),
        nodes,
        BH_LEAF_CAP,
        BhParams::default(),
        BhCost::default(),
    )
}

/// Build an FMM world of `particles` uniformly distributed particles.
pub fn fmm_world_sized(particles: usize, terms: usize, nodes: u16) -> Arc<FmmWorld> {
    let bodies = uniform_square(particles, SEED);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let levels = nbody::quadtree::QuadTree::level_for(particles, 16);
    FmmWorld::build(
        zs,
        qs,
        nodes,
        FmmParams { terms, levels },
        FmmCost::default(),
    )
}

/// The T3D-like network in effect for all experiments.
pub fn paper_net() -> NetConfig {
    NetConfig::default()
}

/// Problem sizes of the paper's two applications.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Barnes-Hut bodies.
    pub bh_n: usize,
    /// FMM particles.
    pub fmm_n: usize,
    /// FMM expansion terms.
    pub fmm_p: usize,
}

impl Sizes {
    /// The sizes the figures run at `scale`: the paper's, a seconds-scale
    /// reduction, or tiny CI worlds.
    pub fn at(scale: Scale) -> Sizes {
        let (bh_n, fmm_n, fmm_p) = match scale {
            Scale::Smoke => (512, 1_024, 8),
            Scale::Quick => (2_048, 4_096, 12),
            Scale::Full => (PAPER_BH_BODIES, PAPER_FMM_PARTICLES, PAPER_FMM_TERMS),
        };
        Sizes { bh_n, fmm_n, fmm_p }
    }
}

/// The paper's two applications as a loop variable: a figure runs
/// `for app in PaperApp::BOTH` once instead of carrying its block twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaperApp {
    /// The Barnes-Hut force phase.
    Bh,
    /// The FMM force phase (M2L, barrier, downward + evaluation).
    Fmm,
}

impl PaperApp {
    /// Both applications, in the paper's order.
    pub const BOTH: [PaperApp; 2] = [PaperApp::Bh, PaperApp::Fmm];

    /// The `app` key of this application's JSON points.
    pub fn key(self) -> &'static str {
        match self {
            PaperApp::Bh => "bh",
            PaperApp::Fmm => "fmm",
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PaperApp::Bh => "Barnes-Hut",
            PaperApp::Fmm => "FMM",
        }
    }

    /// Section heading naming the problem size.
    pub fn heading(self, sizes: Sizes) -> String {
        match self {
            PaperApp::Bh => format!("BARNES-HUT ({} bodies)", sizes.bh_n),
            PaperApp::Fmm => format!("FMM ({} particles, {} terms)", sizes.fmm_n, sizes.fmm_p),
        }
    }

    /// Build this application's world at `sizes` for `nodes`.
    pub fn world(self, sizes: Sizes, nodes: u16) -> AppWorld {
        match self {
            PaperApp::Bh => AppWorld::Bh(bh_world_sized(sizes.bh_n, nodes)),
            PaperApp::Fmm => AppWorld::Fmm(fmm_world_sized(sizes.fmm_n, sizes.fmm_p, nodes)),
        }
    }
}

/// A built n-body world: either paper application, or the adaptive FMM
/// of the clustered-input extension.
pub enum AppWorld {
    /// A Barnes-Hut world.
    Bh(Arc<BhWorld>),
    /// A uniform-tree FMM world.
    Fmm(Arc<FmmWorld>),
    /// An adaptive-FMM world.
    Afmm(Arc<AfmmWorld>),
}

impl AppWorld {
    /// One fault-free force phase under `cfg` on the paper's network.
    /// Panics if it stalls.
    pub fn run(&self, cfg: DpaConfig) -> Run {
        let opts = DstOptions::default();
        match self {
            AppWorld::Bh(w) => run_bh(w, cfg, paper_net(), &opts, Phases::ONE),
            AppWorld::Fmm(w) => run_fmm(w, cfg, paper_net(), &opts),
            AppWorld::Afmm(w) => run_afmm(w, cfg, paper_net(), &opts),
        }
        .expect_completed()
    }
}

/// Check a fault-free run: it completed and every phase passes the
/// lossless invariant oracles. Panics naming `label` otherwise.
pub fn assert_clean(run: &Run, label: &str) {
    for (ph, (r, snaps)) in run.reports.iter().zip(&run.snaps).enumerate() {
        assert!(
            r.completed,
            "{label} phase {ph} stalled: {}",
            r.stall_summary()
        );
        let violations = check_completed(snaps, false);
        assert!(
            violations.is_empty(),
            "{label} phase {ph} violates invariants: {}",
            violations[0]
        );
    }
}

/// One snapshot counter summed machine-wide, per phase.
pub fn per_phase(run: &Run, counter: impl Fn(&NodeSnapshot) -> u64) -> Vec<u64> {
    run.snaps
        .iter()
        .map(|snaps| snaps.iter().map(&counter).sum())
        .collect()
}

/// One experiment data point, dumped as JSON for EXPERIMENTS.md.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpPoint {
    /// Experiment id (e.g. "table1").
    pub experiment: String,
    /// Application ("bh" / "fmm" / "synth").
    pub app: String,
    /// Configuration label.
    pub config: String,
    /// Node count.
    pub nodes: u16,
    /// Simulated execution time, seconds.
    pub seconds: f64,
    /// Mean per-node breakdown (local, overhead, idle) in seconds.
    pub breakdown: (f64, f64, f64),
    /// Total messages sent.
    pub msgs: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Extra key/value metrics.
    pub extra: Vec<(String, f64)>,
}

impl ExpPoint {
    /// Build a point from a run's stats.
    pub fn new(
        experiment: &str,
        app: &str,
        config: &str,
        nodes: u16,
        makespan_ns: u64,
        stats: &RunStats,
    ) -> ExpPoint {
        let (l, o, i) = stats.mean_breakdown();
        ExpPoint {
            breakdown: (l / 1e9, o / 1e9, i / 1e9),
            bytes: stats.total_bytes(),
            ..ExpPoint::derived(
                experiment,
                app,
                config,
                nodes,
                makespan_ns,
                stats.total_msgs(),
            )
        }
    }

    /// A point for a quantity derived from several phases or runs rather
    /// than read off one run's stats (steady-state time, request messages
    /// only): no breakdown, no byte count.
    pub fn derived(
        experiment: &str,
        app: &str,
        config: &str,
        nodes: u16,
        ns: u64,
        msgs: u64,
    ) -> ExpPoint {
        ExpPoint {
            experiment: experiment.to_string(),
            app: app.to_string(),
            config: config.to_string(),
            nodes,
            seconds: ns as f64 / 1e9,
            breakdown: (0.0, 0.0, 0.0),
            msgs,
            bytes: 0,
            extra: Vec::new(),
        }
    }

    /// Attach an extra metric.
    pub fn with(mut self, key: &str, value: f64) -> ExpPoint {
        self.extra.push((key.to_string(), value));
        self
    }

    /// Attach the per-path aggregation factors (wire entries per message on
    /// the request, reply, and update paths).
    pub fn with_agg_factors(self, s: &RunStats) -> ExpPoint {
        self.with(
            "req_agg_factor",
            s.user_ratio("request_entries", "request_msgs"),
        )
        .with(
            "reply_agg_factor",
            s.user_ratio("reply_entries", "reply_msgs"),
        )
        .with(
            "upd_agg_factor",
            s.user_ratio("update_entries", "update_msgs"),
        )
    }
}

/// Minimal JSON emission (no external dependency in this offline build).
pub mod json {
    /// Escape a string for inclusion in a JSON document (adds quotes).
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Format an `f64` as a JSON number (non-finite values become `null`).
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// A parsed JSON value. A number keeps its text, so an integer reads
    /// back exactly whatever its size.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number, as written.
        Number(String),
        /// A string, unescaped.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object's members, in document order.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// The member `key` of an object.
        pub(crate) fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// A number as `f64`; `null` (how [`number`] writes a non-finite
        /// value) as NaN.
        pub(crate) fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => n.parse().ok(),
                Value::Null => Some(f64::NAN),
                _ => None,
            }
        }

        /// An integer number.
        pub(crate) fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) => n.parse().ok(),
                _ => None,
            }
        }

        /// A string's contents.
        pub(crate) fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// An array's elements.
        pub(crate) fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Parse one JSON document (surrounding whitespace allowed).
    pub(crate) fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at == p.s.len() {
            Ok(v)
        } else {
            p.err("trailing input")
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }

        fn err<T>(&self, what: &str) -> Result<T, String> {
            Err(format!("{what} at byte {}", self.at))
        }

        /// Consume `token` if the input continues with it.
        fn eat(&mut self, token: &str) -> bool {
            let hit = self.s[self.at..].starts_with(token.as_bytes());
            if hit {
                self.at += token.len();
            }
            hit
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.s.get(self.at) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Value::String),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ if self.eat("null") => Ok(Value::Null),
                _ if self.eat("true") => Ok(Value::Bool(true)),
                _ if self.eat("false") => Ok(Value::Bool(false)),
                _ => self.err("expected a value"),
            }
        }

        /// The comma-separated items between `open` and `close`.
        fn items<T>(
            &mut self,
            open: &str,
            close: &str,
            mut item: impl FnMut(&mut Self) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            self.eat(open);
            let mut out = Vec::new();
            self.ws();
            if self.eat(close) {
                return Ok(out);
            }
            loop {
                out.push(item(self)?);
                self.ws();
                if self.eat(close) {
                    return Ok(out);
                }
                if !self.eat(",") {
                    return self.err(&format!("expected ',' or '{close}'"));
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.items("[", "]", Self::value).map(Value::Array)
        }

        fn object(&mut self) -> Result<Value, String> {
            self.items("{", "}", |p| {
                p.ws();
                let key = p.string()?;
                p.ws();
                if !p.eat(":") {
                    return p.err("expected ':'");
                }
                Ok((key, p.value()?))
            })
            .map(Value::Object)
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.at;
            while self
                .s
                .get(self.at)
                .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
            {
                self.at += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?;
            match text.parse::<f64>() {
                Ok(_) => Ok(Value::Number(text.to_string())),
                Err(_) => self.err("malformed number"),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat("\"") {
                return self.err("expected a string");
            }
            let mut out = Vec::new();
            loop {
                let Some(&c) = self.s.get(self.at) else {
                    return self.err("unterminated string");
                };
                self.at += 1;
                match c {
                    b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                    b'\\' => {
                        let Some(&e) = self.s.get(self.at) else {
                            return self.err("unterminated escape");
                        };
                        self.at += 1;
                        let ch = match e {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'b' => '\u{8}',
                            b'f' => '\u{c}',
                            b'n' => '\n',
                            b'r' => '\r',
                            b't' => '\t',
                            b'u' => {
                                let hex = self.s.get(self.at..self.at + 4).and_then(|h| {
                                    u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                                });
                                self.at += 4;
                                match hex.and_then(char::from_u32) {
                                    Some(ch) => ch,
                                    None => return self.err("bad \\u escape"),
                                }
                            }
                            _ => return self.err("bad escape"),
                        };
                        out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    _ => out.push(c),
                }
            }
        }
    }
}

impl ExpPoint {
    /// Render this point as a JSON object.
    pub fn to_json(&self) -> String {
        let extra: Vec<String> = self
            .extra
            .iter()
            .map(|(k, v)| format!("[{}, {}]", json::string(k), json::number(*v)))
            .collect();
        format!(
            "{{\"experiment\": {}, \"app\": {}, \"config\": {}, \"nodes\": {}, \
             \"seconds\": {}, \"breakdown\": [{}, {}, {}], \"msgs\": {}, \"bytes\": {}, \
             \"extra\": [{}]}}",
            json::string(&self.experiment),
            json::string(&self.app),
            json::string(&self.config),
            self.nodes,
            json::number(self.seconds),
            json::number(self.breakdown.0),
            json::number(self.breakdown.1),
            json::number(self.breakdown.2),
            self.msgs,
            self.bytes,
            extra.join(", "),
        )
    }
}

impl ExpPoint {
    /// Read back a point [`ExpPoint::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<ExpPoint, String> {
        ExpPoint::from_value(&json::parse(text)?)
    }

    fn from_value(v: &json::Value) -> Result<ExpPoint, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("no \"{key}\" in {v:?}"));
        let bad = |key: &str| format!("malformed \"{key}\" in {v:?}");
        let text = |key: &str| -> Result<String, String> {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| bad(key))
        };
        let breakdown = field("breakdown")?
            .as_array()
            .and_then(|b| match b {
                [l, o, i] => Some((l.as_f64()?, o.as_f64()?, i.as_f64()?)),
                _ => None,
            })
            .ok_or_else(|| bad("breakdown"))?;
        let extra = field("extra")?
            .as_array()
            .ok_or_else(|| bad("extra"))?
            .iter()
            .map(|kv| match kv.as_array() {
                Some([k, v]) => Some((k.as_str()?.to_string(), v.as_f64()?)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| bad("extra"))?;
        Ok(ExpPoint {
            experiment: text("experiment")?,
            app: text("app")?,
            config: text("config")?,
            nodes: field("nodes")?
                .as_u64()
                .and_then(|n| u16::try_from(n).ok())
                .ok_or_else(|| bad("nodes"))?,
            seconds: field("seconds")?.as_f64().ok_or_else(|| bad("seconds"))?,
            breakdown,
            msgs: field("msgs")?.as_u64().ok_or_else(|| bad("msgs"))?,
            bytes: field("bytes")?.as_u64().ok_or_else(|| bad("bytes"))?,
            extra,
        })
    }
}

/// Read the points [`dump_json`] wrote to `path`.
pub fn load_json(path: &Path) -> Result<Vec<ExpPoint>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)?
        .as_array()
        .ok_or_else(|| format!("{}: not an array", path.display()))?
        .iter()
        .map(ExpPoint::from_value)
        .collect()
}

/// Where every subcommand writes its artifact, relative to the working
/// directory.
pub const RESULTS_DIR: &str = "results";

/// Write `body` to `dir/file`, creating `dir`; says so on stderr only
/// once the file is really there.
pub fn write_result(dir: &Path, file: &str, body: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    std::fs::write(&path, body)?;
    eprintln!("[wrote {}]", path.display());
    Ok(())
}

/// Write experiment points as pretty JSON to `results/<name>.json`.
pub fn dump_json(name: &str, points: &[ExpPoint]) -> io::Result<()> {
    let rows: Vec<String> = points
        .iter()
        .map(|p| format!("  {}", p.to_json()))
        .collect();
    let body = format!("[\n{}\n]\n", rows.join(",\n"));
    write_result(Path::new(RESULTS_DIR), &format!("{name}.json"), &body)
}

/// Format seconds like the paper's tables (two decimals).
pub fn fmt_secs(ns: u64) -> String {
    format!("{:8.2}", ns as f64 / 1e9)
}

/// Render a row of a breakdown bar as percentages.
pub fn breakdown_pct(stats: &RunStats) -> (f64, f64, f64) {
    let (l, o, i) = stats.mean_breakdown();
    let t = (l + o + i).max(1.0);
    (100.0 * l / t, 100.0 * o / t, 100.0 * i / t)
}

/// Render a local/overhead/idle split as a fixed-width ASCII bar —
/// `█` local, `▒` overhead, `·` idle — the textual form of the paper's
/// breakdown figure.
pub fn ascii_bar(local: f64, overhead: f64, idle: f64, width: usize) -> String {
    let total = (local + overhead + idle).max(1e-12);
    let mut l = ((local / total) * width as f64).round() as usize;
    let mut o = ((overhead / total) * width as f64).round() as usize;
    l = l.min(width);
    o = o.min(width - l);
    let i = width - l - o;
    format!("{}{}{}", "█".repeat(l), "▒".repeat(o), "·".repeat(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_build_at_small_scale() {
        let bh = bh_world_sized(500, 4);
        assert_eq!(bh.bodies.len(), 500);
        let fmm = fmm_world_sized(400, 8, 4);
        assert_eq!(fmm.solver.zs.len(), 400);
    }

    #[test]
    fn a_failed_write_is_an_error_and_prints_no_wrote_line() {
        // Under the (gitignored) target directory, whatever the cwd.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/write_result_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_result(&dir, "ok.json", "[]\n").expect("a writable directory is created");
        assert_eq!(
            std::fs::read_to_string(dir.join("ok.json")).unwrap(),
            "[]\n"
        );
        // A file where the results directory should be.
        let err = write_result(&dir.join("ok.json"), "never.json", "[]\n");
        assert!(err.is_err(), "writing under a file must fail, got {err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paper_apps_run_through_one_loop() {
        let sizes = Sizes {
            bh_n: 200,
            fmm_n: 256,
            fmm_p: 6,
        };
        for app in PaperApp::BOTH {
            let r = app.world(sizes, 2).run(DpaConfig::dpa(8));
            assert!(
                r.makespan_ns() > 0 && r.counter("interaction_hash") != 0,
                "{}",
                app.key()
            );
        }
        assert_eq!(PaperApp::Bh.heading(sizes), "BARNES-HUT (200 bodies)");
        assert_eq!(PaperApp::Fmm.heading(sizes), "FMM (256 particles, 6 terms)");
    }

    #[test]
    fn fmt_secs_matches_paper_style() {
        assert_eq!(fmt_secs(118_020_000_000).trim(), "118.02");
        assert_eq!(fmt_secs(2_630_000_000).trim(), "2.63");
    }

    #[test]
    fn ascii_bar_partitions_width() {
        let b = ascii_bar(60.0, 20.0, 20.0, 20);
        assert_eq!(b.chars().count(), 20);
        assert_eq!(b.chars().filter(|&c| c == '█').count(), 12);
        assert_eq!(b.chars().filter(|&c| c == '▒').count(), 4);
        assert_eq!(b.chars().filter(|&c| c == '·').count(), 4);
        // Degenerate inputs stay in-bounds.
        assert_eq!(ascii_bar(0.0, 0.0, 0.0, 10).chars().count(), 10);
        assert_eq!(ascii_bar(1.0, 0.0, 0.0, 10), "█".repeat(10));
    }

    #[test]
    fn exp_point_records_breakdown() {
        let stats = RunStats::default();
        let p = ExpPoint::new("t", "bh", "DPA", 4, 1_500_000_000, &stats).with("x", 2.0);
        assert_eq!(p.seconds, 1.5);
        assert_eq!(p.extra[0].1, 2.0);
    }

    #[test]
    fn exp_point_json_is_well_formed() {
        let stats = RunStats::default();
        let p = ExpPoint::new("t\"1", "bh", "DPA", 4, 1_500_000_000, &stats).with("x", 2.0);
        let j = p.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"experiment\": \"t\\\"1\""));
        assert!(j.contains("\"seconds\": 1.5"));
        assert!(j.contains("[\"x\", 2]"));
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::string("a\nb"), "\"a\\nb\"");
    }

    #[test]
    fn exp_point_json_round_trips() {
        let stats = RunStats::default();
        let name = "t\"1\\\n\u{1}é";
        let mut p = ExpPoint::new(name, "bh", "DPA (50)", 64, 2_348_432_101, &stats)
            .with("speedup_vs_seq", 0.1 + 0.2)
            .with("x", -1.5e-300);
        p.breakdown = (1.0 / 3.0, 0.0, 7.25);
        p.msgs = u64::MAX;
        p.bytes = 4_140_448;
        assert_eq!(ExpPoint::from_json(&p.to_json()), Ok(p.clone()));
        let bare = ExpPoint::derived("d", "fmm", "Base", 1, 0, 0);
        assert_eq!(ExpPoint::from_json(&bare.to_json()), Ok(bare));
        // A non-finite number is written as `null` and reads back NaN.
        p.seconds = f64::NAN;
        let nan = ExpPoint::from_json(&p.to_json()).unwrap();
        assert!(nan.seconds.is_nan());
    }

    #[test]
    fn exp_point_from_json_rejects_what_to_json_never_writes() {
        let p = ExpPoint::derived("d", "fmm", "Base", 1, 0, 0).to_json();
        for bad in [
            p.replace("\"nodes\": 1", "\"nodes\": 70000"),
            p.replace("\"msgs\": 0, ", ""),
            p.replace("\"breakdown\": [0, 0, 0]", "\"breakdown\": [0, 0]"),
            p.clone() + ",",
            p[..p.len() - 1].to_string(),
        ] {
            assert!(ExpPoint::from_json(&bad).is_err(), "{bad}");
        }
    }
}
