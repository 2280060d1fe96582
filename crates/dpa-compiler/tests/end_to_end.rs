//! The front end end to end: the printed Mini-ICC kernels, from source
//! text to the static rows T2 prints and the thread structure T3 prints.

use dpa_compiler::{compile_source, kernels};

#[test]
fn printed_static_rows_are_pinned() {
    // kernel/function templates/demand/fork/call
    let rows = [
        "treewalk/sum 6/1/1/0",
        "listsum/lsum 5/1/0/0",
        "bh_kernel/force 9/1/1/0",
    ];
    let mut printed = Vec::new();
    for (name, src) in kernels::T2 {
        for s in compile_source(src).unwrap().stats {
            printed.push(format!(
                "{name}/{} {}/{}/{}/{}",
                s.name, s.templates, s.demand_sites, s.fork_sites, s.call_sites
            ));
        }
    }
    assert_eq!(printed, rows);

    // T3's Barnes-Hut potential: all 14 fields hoisted from a single
    // arrival, one fork of 8 children.
    let pot = &compile_source(kernels::BH_POT).unwrap().stats[0];
    assert_eq!((pot.fork_sites, pot.demand_sites), (1, 1));
}

#[test]
fn tree_walk_thread_structure_is_pinned() {
    let dump = compile_source(kernels::TREE_WALK).unwrap().dump();
    assert_eq!(dump, include_str!("tree_walk.dump"));
}

#[test]
fn hoist_carry_touches_each_pointer_once() {
    let prog = compile_source(
        "struct P { x: int; y: int; z: int; }
         fn f(a: P*, b: P*) -> int {
           return a->x + b->y + a->z;
         }",
    )
    .unwrap();
    // a touched once, b touched once; a->z reuses the carried hoist.
    assert_eq!(prog.stats[0].demand_sites, 2, "{}", prog.dump());
}

#[test]
fn static_thread_stats_match_structure() {
    let prog = compile_source(kernels::TREE_WALK).unwrap();
    let s = &prog.stats[0];
    assert_eq!(s.name, "sum");
    assert_eq!(s.fork_sites, 1);
    assert!(s.templates >= 4);
    // Entry + touch + join + branch arms all materialize as templates.
    assert_eq!(prog.templates.len() as u32, s.templates);
}
