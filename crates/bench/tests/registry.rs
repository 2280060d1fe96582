//! The workload table is the registry: every name the sweep, the corpus
//! and the run service use resolves through it, and what it resolves to is
//! exactly what calling the `apps::driver` runner by hand gives — so the
//! figure subcommands (which call the runners) and the DST sweep (which
//! goes through the table) cannot drift apart.

use apps::driver::{run_bh, run_fmm, run_relax, run_setops, run_synth, Phases, Run};
use bench::dst::{net_for, run_one, Worlds, WORKLOADS};
use dpa_core::{DpaConfig, DstOptions};
use std::path::Path;

#[test]
fn every_listed_name_resolves() {
    let w = Worlds::build();
    for &name in WORKLOADS {
        let out = run_one(&w, name, &DstOptions::default());
        assert!(
            out.is_ok_and(|o| o.completed),
            "{name}: listed but does not run to completion"
        );
    }
    let names: std::collections::HashSet<_> = WORKLOADS.iter().collect();
    assert_eq!(
        names.len(),
        WORKLOADS.len(),
        "a workload name is listed twice"
    );
}

#[test]
fn every_committed_corpus_case_names_a_listed_workload() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/dst_corpus");
    let mut cases = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus dir") {
        let path = entry.expect("corpus dir entry").path();
        if path.extension().is_none_or(|e| e != "case") {
            continue;
        }
        let body = std::fs::read_to_string(&path).expect("readable case");
        let workload = body
            .lines()
            .find_map(|l| l.strip_prefix("workload = "))
            .unwrap_or_else(|| panic!("{}: no `workload = ` line", path.display()))
            .trim();
        // `service` cases replay the scheduler model, not a simulator run.
        assert!(
            workload == "service" || WORKLOADS.contains(&workload),
            "{}: workload {workload:?} is not in the table",
            path.display()
        );
        cases += 1;
    }
    assert!(cases > 0, "no .case files under {}", dir.display());
}

#[test]
fn single_phase_baselines_equal_the_runner_called_directly() {
    let w = Worlds::build();
    let opts = DstOptions::default();
    let net = || net_for(&opts);
    let direct: Vec<(&str, Run)> = vec![
        (
            "synth-dpa",
            run_synth(&w.synth, DpaConfig::dpa(4), net(), &opts, Phases::ONE),
        ),
        (
            "synth-caching",
            run_synth(&w.synth, DpaConfig::caching(), net(), &opts, Phases::ONE),
        ),
        (
            "bh",
            run_bh(&w.bh, DpaConfig::dpa(8), net(), &opts, Phases::ONE),
        ),
        ("fmm", run_fmm(&w.fmm, DpaConfig::dpa(8), net(), &opts)),
        (
            "relax",
            run_relax(&w.relax, DpaConfig::dpa(8), net(), &opts),
        ),
        (
            "setops",
            run_setops(&w.setops, DpaConfig::dpa(8), net(), &opts),
        ),
    ];
    for (name, run) in direct {
        let baseline = run_one(&w, name, &opts).unwrap();
        assert_eq!(
            baseline.digest, run.digest,
            "{name}: table and runner disagree"
        );
        assert_eq!(baseline.makespan_ns, run.makespan_ns(), "{name}");
    }
}
