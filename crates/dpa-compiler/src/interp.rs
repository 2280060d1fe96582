//! The template interpreter, as a [`PtrApp`]: compiled Mini-ICC kernels
//! execute directly on the DPA runtime (or any baseline variant).
//!
//! Each runtime work item is one template activation. `Demand`
//! terminators become runtime demands (the pointer-labeled dependent
//! threads of the paper); `Call`/`Fork` create join cells whose
//! continuations fire when every child has returned. Iteration `i` of the
//! top-level loop is the `i`-th kernel root registered for this node; a
//! kernel's return value is folded into the per-node accumulators.

use crate::ast::BinOp;
use crate::program::{Op, TId, Term, Value};
use crate::world::IccWorld;
use dpa_core::{PtrApp, WorkEnv};
use global_heap::GPtr;
use std::sync::{Arc, Mutex};

/// Where a returning activation delivers its value.
///
/// Join cells are shared only between tasks of *one* node, which always
/// execute on one host thread — but `PtrApp::Work` must be `Send`, so the
/// cells are `Arc<Mutex<…>>` rather than `Rc<RefCell<…>>`. The locks are
/// never contended.
struct JoinState {
    remaining: usize,
    results: Vec<Value>,
    cont: TId,
    cont_regs: Vec<Value>,
    parent: Option<(Arc<Mutex<JoinState>>, usize)>,
}

/// One template activation: the interpreter's work item.
pub struct IccTask {
    t: TId,
    regs: Vec<Value>,
    ret_to: Option<(Arc<Mutex<JoinState>>, usize)>,
}

/// Per-node interpreter state.
pub struct IccApp {
    world: Arc<IccWorld>,
    me: u16,
    /// Sum of integer kernel results.
    pub int_sum: i64,
    /// Sum of float kernel results.
    pub float_sum: f64,
    /// Completed kernel invocations.
    pub completed: u64,
    /// Interpreted ops executed.
    pub ops_executed: u64,
    /// Per-object reduction accumulators (owner side), keyed by the
    /// object's packed pointer bits. Filled by `accum(ptr, value)`.
    pub updates: std::collections::HashMap<u64, f64>,
}

impl IccApp {
    /// The interpreter for node `me`.
    pub fn new(world: Arc<IccWorld>, me: u16) -> IccApp {
        IccApp {
            world,
            me,
            int_sum: 0,
            float_sum: 0.0,
            completed: 0,
            ops_executed: 0,
            updates: std::collections::HashMap::new(),
        }
    }

    fn accumulate(&mut self, v: Value) {
        match v {
            Value::Int(i) => self.int_sum = self.int_sum.wrapping_add(i),
            Value::Float(f) => self.float_sum += f,
            Value::Ptr(_) => {}
        }
        self.completed += 1;
    }

    /// Deliver `v` to a join cell; if it was the last outstanding child,
    /// schedule the continuation.
    fn deliver(
        &mut self,
        env: &mut WorkEnv<'_, IccTask>,
        target: Option<(Arc<Mutex<JoinState>>, usize)>,
        v: Value,
    ) {
        match target {
            None => self.accumulate(v),
            Some((cell, slot)) => {
                let ready = {
                    let mut st = cell.lock().expect("join cell poisoned");
                    st.results[slot] = v;
                    st.remaining -= 1;
                    st.remaining == 0
                };
                if ready {
                    let mut st = cell.lock().expect("join cell poisoned");
                    let mut regs = std::mem::take(&mut st.cont_regs);
                    regs.append(&mut st.results);
                    let task = IccTask {
                        t: st.cont,
                        regs,
                        ret_to: st.parent.take(),
                    };
                    drop(st);
                    env.local(task);
                }
            }
        }
    }
}

fn eval_bin(op: BinOp, a: Value, b: Value) -> Value {
    use Value::*;
    let as_f = |v: Value| match v {
        Int(i) => i as f64,
        Float(f) => f,
        Ptr(_) => panic!("arithmetic on a pointer"),
    };
    let bool_v = |c: bool| Int(c as i64);
    match op {
        BinOp::Eq | BinOp::Ne => {
            let eq = match (a, b) {
                (Ptr(x), Ptr(y)) => x == y,
                (Int(x), Int(y)) => x == y,
                (Float(x), Float(y)) => x == y,
                (Int(x), Float(y)) | (Float(y), Int(x)) => x as f64 == y,
                (Ptr(p), _) | (_, Ptr(p)) => {
                    // Comparing a pointer against a non-pointer: only null
                    // comparisons are meaningful; treat as inequality.
                    let _ = p;
                    false
                }
            };
            bool_v(if op == BinOp::Eq { eq } else { !eq })
        }
        BinOp::Lt => bool_v(as_f(a) < as_f(b)),
        BinOp::Le => bool_v(as_f(a) <= as_f(b)),
        BinOp::Gt => bool_v(as_f(a) > as_f(b)),
        BinOp::Ge => bool_v(as_f(a) >= as_f(b)),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => match (a, b) {
            (Int(x), Int(y)) => {
                let v = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        assert!(y != 0, "integer division by zero");
                        x.wrapping_div(y)
                    }
                    BinOp::Mod => {
                        assert!(y != 0, "integer modulo by zero");
                        x.wrapping_rem(y)
                    }
                    _ => unreachable!(),
                };
                Int(v)
            }
            (a, b) => {
                let (x, y) = (as_f(a), as_f(b));
                Float(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Mod => x % y,
                    _ => unreachable!(),
                })
            }
        },
    }
}

impl IccApp {
    fn gather(regs: &[Value], idx: &[u16]) -> Vec<Value> {
        idx.iter().map(|&r| regs[r as usize]).collect()
    }
}

impl PtrApp for IccApp {
    type Work = IccTask;

    fn num_iterations(&self) -> usize {
        self.world.roots_of(self.me).len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, IccTask>) {
        let args = self.world.roots_of(self.me)[iter].clone();
        env.local(IccTask {
            t: self.world.kernel_entry,
            regs: args,
            ret_to: None,
        });
    }

    fn run_work(&mut self, task: IccTask, env: &mut WorkEnv<'_, IccTask>) {
        let world = self.world.clone();
        let tmpl = &world.program.templates[task.t as usize];
        let mut regs = task.regs;
        debug_assert!(
            regs.len() >= tmpl.in_args as usize,
            "{}: frame {} < in_args {}",
            tmpl.name,
            regs.len(),
            tmpl.in_args
        );

        let set = |regs: &mut Vec<Value>, r: u16, v: Value| {
            let i = r as usize;
            if i >= regs.len() {
                regs.resize(i + 1, Value::Int(0));
            }
            regs[i] = v;
        };

        for op in &tmpl.ops {
            self.ops_executed += 1;
            env.charge(world.op_ns);
            match op {
                Op::Const(d, v) => set(&mut regs, *d, *v),
                Op::Move(d, s) => {
                    let v = regs[*s as usize];
                    set(&mut regs, *d, v);
                }
                Op::Bin(op, d, a, b) => {
                    let v = eval_bin(*op, regs[*a as usize], regs[*b as usize]);
                    set(&mut regs, *d, v);
                }
                Op::Accum(pr, vr) => {
                    let Value::Ptr(p) = regs[*pr as usize] else {
                        panic!("{}: accum through a non-pointer", tmpl.name)
                    };
                    assert!(!p.is_null(), "{}: accum on null pointer", tmpl.name);
                    let v = match regs[*vr as usize] {
                        Value::Int(i) => i as f64,
                        Value::Float(f) => f,
                        Value::Ptr(_) => panic!("{}: accum of a pointer value", tmpl.name),
                    };
                    env.accumulate(p, v);
                }
                Op::Sqrt(d, a) => {
                    let x = match regs[*a as usize] {
                        Value::Int(i) => i as f64,
                        Value::Float(f) => f,
                        Value::Ptr(_) => panic!("{}: sqrt of a pointer", tmpl.name),
                    };
                    set(&mut regs, *d, Value::Float(x.sqrt()));
                }
                Op::Load { dst, obj, field } => {
                    let Value::Ptr(p) = regs[*obj as usize] else {
                        panic!("{}: load through a non-pointer", tmpl.name)
                    };
                    assert!(!p.is_null(), "{}: null pointer dereference", tmpl.name);
                    env.assert_readable(p);
                    let v = world.field(p, *field);
                    set(&mut regs, *dst, v);
                }
            }
        }

        match &tmpl.term {
            Term::Jump { t, args } => {
                env.local(IccTask {
                    t: *t,
                    regs: Self::gather(&regs, args),
                    ret_to: task.ret_to,
                });
            }
            Term::Branch {
                cond,
                then_t,
                then_args,
                else_t,
                else_args,
            } => {
                env.charge(world.op_ns);
                let (t, a) = if regs[*cond as usize].truthy() {
                    (*then_t, then_args)
                } else {
                    (*else_t, else_args)
                };
                env.local(IccTask {
                    t,
                    regs: Self::gather(&regs, a),
                    ret_to: task.ret_to,
                });
            }
            Term::Demand { ptr, t, args } => {
                let Value::Ptr(p) = regs[*ptr as usize] else {
                    panic!("{}: demand through a non-pointer", tmpl.name)
                };
                assert!(!p.is_null(), "{}: null pointer touched", tmpl.name);
                env.demand(
                    p,
                    IccTask {
                        t: *t,
                        regs: Self::gather(&regs, args),
                        ret_to: task.ret_to,
                    },
                );
            }
            Term::Call {
                entry,
                args,
                cont,
                cont_args,
            } => {
                let cell = Arc::new(Mutex::new(JoinState {
                    remaining: 1,
                    results: vec![Value::Int(0)],
                    cont: *cont,
                    cont_regs: Self::gather(&regs, cont_args),
                    parent: task.ret_to,
                }));
                env.local(IccTask {
                    t: *entry,
                    regs: Self::gather(&regs, args),
                    ret_to: Some((cell, 0)),
                });
            }
            Term::Fork {
                children,
                cont,
                cont_args,
            } => {
                let cell = Arc::new(Mutex::new(JoinState {
                    remaining: children.len(),
                    results: vec![Value::Int(0); children.len()],
                    cont: *cont,
                    cont_regs: Self::gather(&regs, cont_args),
                    parent: task.ret_to,
                }));
                for (slot, (entry, args)) in children.iter().enumerate() {
                    env.local(IccTask {
                        t: *entry,
                        regs: Self::gather(&regs, args),
                        ret_to: Some((cell.clone(), slot)),
                    });
                }
            }
            Term::Ret(v) => {
                let val = v.map_or(Value::Int(0), |r| regs[r as usize]);
                self.deliver(env, task.ret_to, val);
            }
        }
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.classes.size(ptr.class())
    }

    fn apply_update(&mut self, ptr: GPtr, value: f64) {
        *self.updates.entry(ptr.bits()).or_insert(0.0) += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_bin_arithmetic() {
        assert_eq!(
            eval_bin(BinOp::Add, Value::Int(2), Value::Int(3)),
            Value::Int(5)
        );
        assert_eq!(
            eval_bin(BinOp::Mul, Value::Float(2.0), Value::Int(3)),
            Value::Float(6.0)
        );
        assert_eq!(
            eval_bin(BinOp::Mod, Value::Int(7), Value::Int(4)),
            Value::Int(3)
        );
        assert_eq!(
            eval_bin(BinOp::Lt, Value::Int(1), Value::Int(2)),
            Value::Int(1)
        );
    }

    #[test]
    fn eval_bin_pointer_equality() {
        let p = Value::Ptr(GPtr::new(0, global_heap::ObjClass(0), 3));
        let null = Value::Ptr(GPtr::NULL);
        assert_eq!(eval_bin(BinOp::Eq, p, null), Value::Int(0));
        assert_eq!(eval_bin(BinOp::Ne, p, null), Value::Int(1));
        assert_eq!(eval_bin(BinOp::Eq, null, null), Value::Int(1));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_zero_panics() {
        eval_bin(BinOp::Div, Value::Int(1), Value::Int(0));
    }
}
