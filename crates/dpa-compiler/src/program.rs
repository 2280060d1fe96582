//! The compiled form: non-blocking thread templates.
//!
//! The partitioner (see [`mod@crate::compile`]) lowers each Mini-ICC function
//! into a set of **templates** — straight-line op sequences ending in a
//! scheduling terminator. A template is exactly the paper's non-blocking
//! thread: it runs to completion, and every potentially-remote dereference
//! has been hoisted to the top of the template that the touch's
//! [`Term::Demand`] creates, labeled with the touched pointer.

use crate::ast::BinOp;
use global_heap::GPtr;
use std::fmt;

/// A virtual register within a template frame.
pub type Reg = u16;

/// Index of a template in the compiled program.
pub type TId = u32;

/// A runtime value (dynamically typed; `Ptr(GPtr::NULL)` is `null`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// 64-bit integer (also carries booleans: 0 / 1).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Global pointer (possibly null).
    Ptr(GPtr),
}

impl Value {
    /// Truthiness for `Branch`.
    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
            Value::Ptr(p) => !p.is_null(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Ptr(p) => write!(f, "{p}"),
        }
    }
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
    /// `accum(ptr, value)` — emit a remote reduction folding `value` into
    /// the accumulator of the object at `ptr` (the runtime batches it).
    Accum(Reg, Reg),
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

/// A struct layout: name plus ordered field names.
#[derive(Clone, Debug)]
pub struct StructLayout {
    /// Struct name.
    pub name: String,
    /// Field names in declaration order.
    pub fields: Vec<String>,
}

impl StructLayout {
    /// Wire size of an object of this layout.
    pub fn size_bytes(&self) -> u32 {
        8 * self.fields.len() as u32 + 16
    }
}

/// A fully compiled program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// All templates across all functions.
    pub templates: Vec<Template>,
    /// Function name → (entry template, arity, returns value?).
    pub functions: Vec<(String, TId, usize, bool)>,
    /// Struct layouts, indexed by object class id.
    pub structs: Vec<StructLayout>,
    /// Per-function static statistics.
    pub stats: Vec<FnStats>,
}

impl CompiledProgram {
    /// Look up a function's `(entry, arity, has_ret)`.
    pub fn function(&self, name: &str) -> Option<(TId, usize, bool)> {
        self.functions
            .iter()
            .find(|(n, _, _, _)| n == name)
            .map(|&(_, t, a, r)| (t, a, r))
    }

    /// Look up a struct class id by name.
    pub fn struct_class(&self, name: &str) -> Option<u8> {
        self.structs
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as u8)
    }

    /// Total static templates (threads) in the program.
    pub fn total_templates(&self) -> usize {
        self.templates.len()
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(Value::Int(3).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Float(0.5).truthy());
        assert!(!Value::Ptr(GPtr::NULL).truthy());
        assert!(Value::Ptr(GPtr::new(0, global_heap::ObjClass(0), 1)).truthy());
    }

    #[test]
    fn layout_size() {
        let l = StructLayout {
            name: "Node".into(),
            fields: vec!["a".into(), "b".into(), "c".into()],
        };
        assert_eq!(l.size_bytes(), 40);
    }
}
