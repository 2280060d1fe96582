//! # dpa-compiler — the compiler half of Dynamic Pointer Alignment
//!
//! The paper's compiler "decomposes a program into non-blocking threads
//! that operate on specific pointers and labels thread creation sites with
//! their corresponding pointers". This crate reproduces that pipeline on
//! **Mini-ICC**, an ICC++-like kernel language, as a front end with no
//! runtime dependency:
//!
//! * [`lexer`] / [`parser`] — source text → AST ([`ast`]);
//! * [`mod@compile`] — the thread partitioner: coarse alias classes, touch
//!   splitting, whole-object access hoisting (carried across every
//!   single-predecessor boundary), function promotion, `conc` forks and
//!   the `sqrt` intrinsic; emits pointer-labeled thread templates
//!   ([`program`]) plus the static thread statistics the paper tabulates;
//! * [`kernels`] — the Mini-ICC kernels whose statistics and thread
//!   structure the repo prints (`bench table_thread_stats`, the
//!   `compiler_demo` example).
//!
//! The runtime's apps write their pointer labels by hand; nothing here
//! executes the templates.
//!
//! ```
//! use dpa_compiler::compile_source;
//!
//! let prog = compile_source(
//!     "struct Node { val: int; next: Node*; }
//!      fn sum(n: Node*) -> int {
//!        if (n == null) { return 0; }
//!        let rest: int = sum(n->next);
//!        return rest + n->val;
//!      }").unwrap();
//!
//! // One touch of `n` (val and next hoisted from one arrival) and one
//! // promoted call.
//! let sum = &prog.stats[0];
//! assert_eq!((sum.demand_sites, sum.call_sites), (1, 1));
//! assert!(prog.dump().contains("[demand-entry]"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod kernels;
pub mod lexer;
pub mod parser;
pub mod program;

pub use compile::{compile, CompileError};
pub use lexer::SyntaxError;
pub use parser::parse;
pub use program::{CompiledProgram, FnStats};

/// Parse and compile Mini-ICC source in one step.
pub fn compile_source(src: &str) -> Result<CompiledProgram, Box<dyn std::error::Error>> {
    Ok(compile(&parse(src)?)?)
}
