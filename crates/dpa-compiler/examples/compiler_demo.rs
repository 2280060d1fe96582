//! The compiler half of DPA: partition a recursive Mini-ICC tree walk into
//! pointer-labeled non-blocking threads (the paper's Figure 7 shape) and
//! print the static statistics and the thread structure.
//!
//! ```sh
//! cargo run --release -p dpa-compiler --example compiler_demo
//! ```

use dpa_compiler::{compile_source, kernels::TREE_WALK};

fn main() {
    println!("-- Mini-ICC source --{TREE_WALK}\n");
    let prog = compile_source(TREE_WALK).expect("compiles");

    println!("-- static thread statistics --");
    for s in &prog.stats {
        println!(
            "  fn {}: {} templates, {} demand sites, {} fork sites, {} call sites",
            s.name, s.templates, s.demand_sites, s.fork_sites, s.call_sites
        );
    }

    println!("\n-- partitioned thread structure --");
    print!("{}", prog.dump());
}
