//! The compiled form: non-blocking thread templates.
//!
//! The partitioner (see [`mod@crate::compile`]) lowers each Mini-ICC function
//! into a set of **templates** — straight-line op sequences ending in a
//! scheduling terminator. A template is exactly the paper's non-blocking
//! thread: it runs to completion, and every potentially-remote dereference
//! has been hoisted to the top of the template that the touch's
//! [`Term::Demand`] creates, labeled with the touched pointer.

use crate::ast::BinOp;

/// A virtual register within a template frame.
pub type Reg = u16;

/// Index of a template in the compiled program.
pub type TId = u32;

/// A constant operand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// 64-bit integer (also carries booleans: 0 / 1).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// The null pointer.
    Null,
}

/// A straight-line operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `dst = constant`
    Const(Reg, Value),
    /// `dst = src`
    Move(Reg, Reg),
    /// `dst = a <op> b`
    Bin(BinOp, Reg, Reg, Reg),
    /// `dst = sqrt(src)` — the numeric intrinsic (compiled inline, not
    /// promoted: it cannot touch).
    Sqrt(Reg, Reg),
    /// `dst = obj->field` — `obj` must already be available (hoisted
    /// loads appear only at the top of a demand-entered template).
    Load {
        /// Destination register.
        dst: Reg,
        /// Register holding the object pointer.
        obj: Reg,
        /// Field index within the object's struct.
        field: u16,
    },
}

/// A template's terminator: how control transfers to other threads.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// Unconditional transfer within the function.
    Jump {
        /// Target template.
        t: TId,
        /// Registers passed as the target's frame.
        args: Vec<Reg>,
    },
    /// Two-way conditional transfer.
    Branch {
        /// Condition register.
        cond: Reg,
        /// Taken when truthy.
        then_t: TId,
        /// Frame for the then-target.
        then_args: Vec<Reg>,
        /// Taken when falsy.
        else_t: TId,
        /// Frame for the else-target.
        else_args: Vec<Reg>,
    },
    /// Create a dependent thread labeled with the pointer in `ptr`: the
    /// runtime aligns it in M and runs it when the object is available.
    /// This is the *touch* boundary.
    Demand {
        /// Register holding the touched pointer.
        ptr: Reg,
        /// Continuation template (begins with the hoisted loads).
        t: TId,
        /// Frame registers (the touched pointer is passed last).
        args: Vec<Reg>,
    },
    /// Function promotion: invoke `entry` as a child thread; the
    /// continuation runs when it returns, receiving the result appended
    /// to `cont_args`.
    Call {
        /// Callee entry template.
        entry: TId,
        /// Argument registers.
        args: Vec<Reg>,
        /// Continuation template.
        cont: TId,
        /// Saved registers passed through to the continuation.
        cont_args: Vec<Reg>,
    },
    /// `conc` block: spawn every child; the continuation runs at the join
    /// with all child results appended to `cont_args`.
    Fork {
        /// `(entry template, argument registers)` per child.
        children: Vec<(TId, Vec<Reg>)>,
        /// Join-continuation template.
        cont: TId,
        /// Saved registers passed through to the continuation.
        cont_args: Vec<Reg>,
    },
    /// Return from the current function activation.
    Ret(Option<Reg>),
}

/// One non-blocking thread template.
#[derive(Clone, Debug)]
pub struct Template {
    /// Debug name, e.g. `sum#2`.
    pub name: String,
    /// Number of frame registers filled by the caller/creator.
    pub in_args: u16,
    /// Straight-line body.
    pub ops: Vec<Op>,
    /// Scheduling terminator.
    pub term: Term,
    /// `true` when entered via `Demand` (counted as a labeled
    /// thread-creation site in the statistics).
    pub demand_entry: bool,
}

/// Static per-function statistics (the paper's "static threads" table).
#[derive(Clone, Debug, PartialEq)]
pub struct FnStats {
    /// Function name.
    pub name: String,
    /// Templates generated (static non-blocking threads).
    pub templates: u32,
    /// `Demand` sites (pointer-labeled thread-creation sites).
    pub demand_sites: u32,
    /// `Fork` (conc) sites.
    pub fork_sites: u32,
    /// Promoted call sites.
    pub call_sites: u32,
}

/// A fully compiled program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// All templates across all functions.
    pub templates: Vec<Template>,
    /// Per-function static statistics.
    pub stats: Vec<FnStats>,
}

impl CompiledProgram {
    /// Pretty-print the thread structure (the paper's Figure 7 view).
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, t) in self.templates.iter().enumerate() {
            let entry = if t.demand_entry {
                " [demand-entry]"
            } else {
                ""
            };
            let _ = writeln!(out, "t{i} {}({} in){entry}:", t.name, t.in_args);
            for op in &t.ops {
                let _ = writeln!(out, "    {op:?}");
            }
            let _ = writeln!(out, "    -> {:?}", t.term);
        }
        out
    }
}
