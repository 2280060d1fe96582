//! The thread partitioner — the compiler half of DPA.
//!
//! Lowers each Mini-ICC function into non-blocking thread templates,
//! implementing the paper's Section 3–4 pipeline on a small scale:
//!
//! * **Alias classes** — coarse-grained: every value of struct-pointer
//!   type is *global* (potentially remote); ints/floats are local. The
//!   paper found coarse aliasing sufficient to enable the optimizations.
//! * **Touch splitting** — a dereference `e->f` of a global pointer ends
//!   the current thread with a [`Term::Demand`] labeled by the pointer;
//!   the continuation thread begins when the object is available.
//! * **Access hoisting** — the continuation immediately loads *every*
//!   field of the touched object into registers, so later `e->g` reads in
//!   the same thread are register moves, not new touches ("our use of
//!   aliasing to hoist data accesses enables larger threads").
//! * **Function promotion** — a call becomes a child-thread spawn with an
//!   explicit continuation ([`Term::Call`]), since the callee may block
//!   on touches internally.
//! * **`conc` blocks** — lower to [`Term::Fork`]: children execute in any
//!   interleaving and join before the continuation.
//!
//! Top-level loop strip-mining is performed by the runtime's k-bounded
//! admission (the compiler's iteration space is the root set handed to
//! the interpreter).

use crate::ast::*;
use crate::program::*;
use std::collections::HashMap;
use std::fmt;

/// A compilation error (unknown names, misplaced calls, arity…).
#[derive(Clone, Debug, PartialEq)]
pub struct CompileError {
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.msg)
    }
}

impl std::error::Error for CompileError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError { msg: msg.into() })
}

#[derive(Clone, Debug)]
struct ScopeVar {
    name: String,
    reg: Reg,
    /// `Some(struct)` when this is a global pointer.
    ptr_struct: Option<String>,
}

struct Lower<'p> {
    templates: &'p mut Vec<Template>,
    fns: &'p HashMap<String, (TId, usize, bool)>,
    structs: &'p HashMap<String, Vec<Field>>,
    fn_name: String,
    cur: TId,
    ops: Vec<Op>,
    next_reg: Reg,
    scope: Vec<ScopeVar>,
    /// Temporaries that must survive template splits, with their pointer
    /// struct (for later derefs).
    protected: Vec<(Reg, Option<String>)>,
    /// reg → field → (reg, ptr_struct): hoisted loads valid within the
    /// current template chain segment.
    hoisted: HashMap<Reg, HashMap<String, (Reg, Option<String>)>>,
    demand_sites: u32,
    fork_sites: u32,
    call_sites: u32,
    templates_made: u32,
    /// Current control path ended with `return`.
    done: bool,
}

fn ptr_struct_of(ty: &Ty) -> Option<String> {
    match ty {
        Ty::Ptr(s) => Some(s.clone()),
        _ => None,
    }
}

impl<'p> Lower<'p> {
    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn alloc_template(&mut self, tag: &str) -> TId {
        let id = self.templates.len() as TId;
        self.templates.push(Template {
            name: format!("{}#{}", self.fn_name, tag),
            in_args: 0,
            ops: Vec::new(),
            term: Term::Ret(None),
            demand_entry: false,
        });
        self.templates_made += 1;
        id
    }

    fn finalize(&mut self, term: Term) {
        let t = &mut self.templates[self.cur as usize];
        t.ops = std::mem::take(&mut self.ops);
        t.term = term;
    }

    /// Registers that must survive a template boundary, in canonical
    /// order: scope variables then protected temporaries.
    fn boundary_args(&self) -> Vec<Reg> {
        self.scope
            .iter()
            .map(|v| v.reg)
            .chain(self.protected.iter().map(|p| p.0))
            .collect()
    }

    /// Renumber scope + protected into a fresh frame (0..n).
    fn rebind_frame(&mut self) {
        let mut r: Reg = 0;
        for v in &mut self.scope {
            v.reg = r;
            r += 1;
        }
        for p in &mut self.protected {
            p.0 = r;
            r += 1;
        }
        self.next_reg = r;
        self.hoisted.clear();
    }

    /// Enter `t` as the current template with the canonical frame.
    fn enter(&mut self, t: TId) {
        self.cur = t;
        self.ops = Vec::new();
        self.rebind_frame();
        self.templates[t as usize].in_args = self.next_reg;
    }

    /// Enter a *single-predecessor* target carrying hoisted fields across
    /// the boundary (branch arms; multi-predecessor merges and loop
    /// headers must use [`Lower::enter`] so every predecessor passes the
    /// same frame layout).
    fn enter_with_carry(
        &mut self,
        t: TId,
        carried: Vec<(Reg, String, Reg, Option<String>)>,
        old_scope_regs: &[Reg],
        old_prot_regs: &[Reg],
    ) {
        self.cur = t;
        self.ops = Vec::new();
        self.rebind_frame();
        self.restore_carried(carried, old_scope_regs, old_prot_regs);
        self.templates[t as usize].in_args = self.next_reg;
    }

    /// Hoisted entries eligible to cross a single-predecessor boundary:
    /// their base pointer survives in scope or protected. Sorted for
    /// reproducible codegen. `exclude` drops entries for one base (the
    /// pointer being re-demanded, whose fields are about to be re-hoisted
    /// fresh).
    fn carried_entries(&self, exclude: Option<Reg>) -> Vec<(Reg, String, Reg, Option<String>)> {
        let mut carried: Vec<(Reg, String, Reg, Option<String>)> = self
            .hoisted
            .iter()
            .filter(|(b, _)| {
                Some(**b) != exclude
                    && (self.scope.iter().any(|v| v.reg == **b)
                        || self.protected.iter().any(|p| p.0 == **b))
            })
            .flat_map(|(b, m)| {
                m.iter()
                    .map(move |(f, (r, ps))| (*b, f.clone(), *r, ps.clone()))
            })
            .collect();
        carried.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        carried
    }

    /// After [`Lower::rebind_frame`], re-establish carried hoists at the
    /// next frame positions (in `carried` order, matching the extra
    /// boundary arguments), keyed by the *remapped* base registers.
    fn restore_carried(
        &mut self,
        carried: Vec<(Reg, String, Reg, Option<String>)>,
        old_scope_regs: &[Reg],
        old_prot_regs: &[Reg],
    ) {
        for (old_base, field, _old_val, ps) in carried {
            let val_reg = self.next_reg;
            self.next_reg += 1;
            for (i, &oreg) in old_scope_regs.iter().enumerate() {
                if oreg == old_base {
                    let nb = self.scope[i].reg;
                    self.hoisted
                        .entry(nb)
                        .or_default()
                        .insert(field.clone(), (val_reg, ps.clone()));
                }
            }
            for (i, &oreg) in old_prot_regs.iter().enumerate() {
                if oreg == old_base {
                    let nb = self.protected[i].0;
                    self.hoisted
                        .entry(nb)
                        .or_default()
                        .insert(field.clone(), (val_reg, ps.clone()));
                }
            }
        }
    }

    /// Touch `base` (a global pointer to `sname`): split the thread with
    /// a Demand and hoist every field at the top of the continuation.
    /// Returns the remapped base register.
    ///
    /// Previously-hoisted fields whose base pointer survives the boundary
    /// (it is a scope variable or protected temp) are *carried* across the
    /// split, so chained dereferences like `a->x + b->y + a->z` touch each
    /// pointer exactly once.
    fn touch(&mut self, base: Reg, sname: &str) -> Reg {
        // Scope/protected slots holding this same pointer must see the
        // hoisted fields too (e.g. `p->x` where `p` is a variable: later
        // `p->y` looks up via the variable's register).
        let alias_scope: Vec<usize> = self
            .scope
            .iter()
            .enumerate()
            .filter(|(_, v)| v.reg == base)
            .map(|(i, _)| i)
            .collect();
        let alias_prot: Vec<usize> = self
            .protected
            .iter()
            .enumerate()
            .filter(|(_, p)| p.0 == base)
            .map(|(i, _)| i)
            .collect();

        let old_scope_regs: Vec<Reg> = self.scope.iter().map(|v| v.reg).collect();
        let old_prot_regs: Vec<Reg> = self.protected.iter().map(|p| p.0).collect();
        let carried = self.carried_entries(Some(base));

        let mut args = self.boundary_args();
        args.extend(carried.iter().map(|c| c.2));
        args.push(base);
        let next = self.alloc_template("touch");
        self.finalize(Term::Demand {
            ptr: base,
            t: next,
            args,
        });
        self.demand_sites += 1;

        self.cur = next;
        self.ops = Vec::new();
        self.rebind_frame();
        self.restore_carried(carried, &old_scope_regs, &old_prot_regs);
        let base2 = self.next_reg;
        self.next_reg += 1;
        self.templates[next as usize].in_args = self.next_reg;
        self.templates[next as usize].demand_entry = true;

        // Access hoisting: load the whole (just-arrived) object.
        let fields = self.structs[sname].clone();
        let mut map = HashMap::new();
        for (i, f) in fields.iter().enumerate() {
            let d = self.fresh();
            self.ops.push(Op::Load {
                dst: d,
                obj: base2,
                field: i as u16,
            });
            map.insert(f.name.clone(), (d, ptr_struct_of(&f.ty)));
        }
        for i in alias_scope {
            let r = self.scope[i].reg;
            self.hoisted.insert(r, map.clone());
        }
        for i in alias_prot {
            let r = self.protected[i].0;
            self.hoisted.insert(r, map.clone());
        }
        self.hoisted.insert(base2, map);
        base2
    }

    fn lookup_var(&self, name: &str) -> Option<&ScopeVar> {
        self.scope.iter().rev().find(|v| v.name == name)
    }

    fn expr(&mut self, e: &Expr) -> Result<(Reg, Option<String>), CompileError> {
        match e {
            Expr::Int(v) => {
                let r = self.fresh();
                self.ops.push(Op::Const(r, Value::Int(*v)));
                Ok((r, None))
            }
            Expr::Float(v) => {
                let r = self.fresh();
                self.ops.push(Op::Const(r, Value::Float(*v)));
                Ok((r, None))
            }
            Expr::Null => {
                let r = self.fresh();
                self.ops
                    .push(Op::Const(r, Value::Ptr(global_heap::GPtr::NULL)));
                Ok((r, None))
            }
            Expr::Var(name) => match self.lookup_var(name) {
                Some(v) => Ok((v.reg, v.ptr_struct.clone())),
                None => err(format!("unknown variable `{name}` in `{}`", self.fn_name)),
            },
            Expr::Bin(op, l, r) => {
                let (lr, _) = self.expr(l)?;
                self.protected.push((lr, None));
                let (rr, _) = self.expr(r)?;
                let (lr, _) = self.protected.pop().expect("protected underflow");
                let d = self.fresh();
                self.ops.push(Op::Bin(*op, d, lr, rr));
                Ok((d, None))
            }
            Expr::FieldRead { base, field } => {
                let (br, bs) = self.expr(base)?;
                let Some(sname) = bs else {
                    return err(format!(
                        "`->{field}`: dereference of a non-pointer expression in `{}`",
                        self.fn_name
                    ));
                };
                let fields = self.structs.get(&sname).ok_or_else(|| CompileError {
                    msg: format!("unknown struct `{sname}`"),
                })?;
                if !fields.iter().any(|f| &f.name == field) {
                    return err(format!("struct `{sname}` has no field `{field}`"));
                }
                let base_reg = if self.hoisted.contains_key(&br) {
                    br
                } else {
                    self.touch(br, &sname)
                };
                let (r, ps) = self.hoisted[&base_reg][field].clone();
                Ok((r, ps))
            }
            Expr::Call { func, args } if func == "sqrt" => {
                // Numeric intrinsic: compiled inline (it cannot touch, so
                // no promotion is needed).
                if args.len() != 1 {
                    return err("`sqrt` takes exactly one argument");
                }
                let (a, _) = self.expr(&args[0])?;
                let d = self.fresh();
                self.ops.push(Op::Sqrt(d, a));
                Ok((d, None))
            }
            Expr::Call { .. } => err(format!(
                "in `{}`: calls may only appear as the direct right-hand side of a \
                 let/assignment or as a statement (function promotion)",
                self.fn_name
            )),
        }
    }

    /// Resolve + arity-check a call expression.
    fn resolve_call<'e>(
        &self,
        e: &'e Expr,
    ) -> Result<(TId, bool, &'e [Expr], &'e str), CompileError> {
        let Expr::Call { func, args } = e else {
            unreachable!("resolve_call on non-call")
        };
        let Some(&(entry, arity, has_ret)) = self.fns.get(func.as_str()) else {
            return err(format!("unknown function `{func}`"));
        };
        if args.len() != arity {
            return err(format!(
                "`{func}` expects {arity} arguments, got {}",
                args.len()
            ));
        }
        Ok((entry, has_ret, args, func))
    }

    /// Lower a promoted call statement. `bind` is `(name, Some(declared
    /// type))` for `let`, `(name, None)` for assignment, `None` to discard.
    fn call_stmt(
        &mut self,
        bind: Option<(&str, Option<&Ty>)>,
        call: &Expr,
    ) -> Result<(), CompileError> {
        let (entry, has_ret, args, func) = self.resolve_call(call)?;
        if bind.is_some() && !has_ret {
            return err(format!("`{func}` returns no value to bind"));
        }
        let func = func.to_string();
        let _ = func;
        // Evaluate arguments, protecting earlier ones across later splits.
        let n = args.len();
        for a in args {
            let (r, ps) = self.expr(a)?;
            self.protected.push((r, ps));
        }
        let arg_regs: Vec<Reg> = self
            .protected
            .split_off(self.protected.len() - n)
            .into_iter()
            .map(|p| p.0)
            .collect();
        // The continuation is single-predecessor: hoists carry through the
        // call (its result arrives after the carried values).
        let osr: Vec<Reg> = self.scope.iter().map(|v| v.reg).collect();
        let opr: Vec<Reg> = self.protected.iter().map(|p| p.0).collect();
        let carried = self.carried_entries(None);
        let mut cont_args = self.boundary_args();
        cont_args.extend(carried.iter().map(|c| c.2));
        let cont = self.alloc_template("ret");
        self.finalize(Term::Call {
            entry,
            args: arg_regs,
            cont,
            cont_args,
        });
        self.call_sites += 1;
        self.enter_with_carry(cont, carried, &osr, &opr);
        // Result arrives appended to the frame.
        let result = self.next_reg;
        self.next_reg += 1;
        self.templates[cont as usize].in_args = self.next_reg;
        match bind {
            Some((name, Some(ty))) => self.scope.push(ScopeVar {
                name: name.to_string(),
                reg: result,
                ptr_struct: ptr_struct_of(ty),
            }),
            Some((name, None)) => match self.scope.iter_mut().rev().find(|v| v.name == *name) {
                Some(v) => v.reg = result,
                None => return err(format!("assignment to unknown variable `{name}`")),
            },
            None => {}
        }
        Ok(())
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            if self.done {
                return err(format!(
                    "unreachable statement after `return` in `{}`",
                    self.fn_name
                ));
            }
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Let { name, ty, value } => {
                if matches!(value, Expr::Call { func, .. } if func != "sqrt") {
                    self.call_stmt(Some((name, Some(ty))), value)
                } else {
                    let (r, _) = self.expr(value)?;
                    self.scope.push(ScopeVar {
                        name: name.clone(),
                        reg: r,
                        ptr_struct: ptr_struct_of(ty),
                    });
                    Ok(())
                }
            }
            Stmt::Assign { name, value } => {
                if matches!(value, Expr::Call { func, .. } if func != "sqrt") {
                    self.call_stmt(Some((name, None)), value)
                } else {
                    let (r, _) = self.expr(value)?;
                    match self.scope.iter_mut().rev().find(|v| &v.name == name) {
                        Some(v) => {
                            v.reg = r;
                            Ok(())
                        }
                        None => err(format!("assignment to unknown variable `{name}`")),
                    }
                }
            }
            Stmt::Return(val) => {
                let r = match val {
                    Some(e) => Some(self.expr(e)?.0),
                    None => None,
                };
                self.finalize(Term::Ret(r));
                self.done = true;
                Ok(())
            }
            Stmt::ConcFor { .. } => {
                unreachable!("conc for must be desugared before lowering (compile() runs the pass)")
            }
            Stmt::Expr(e) => {
                if let Expr::Call { func, args } = e {
                    if func == "accum" {
                        // Reduction intrinsic: fold args[1] into the
                        // object at args[0]; compiled inline (the runtime
                        // batches the update).
                        if args.len() != 2 {
                            return err("`accum` takes (pointer, value)");
                        }
                        let (pr, ps) = self.expr(&args[0])?;
                        if ps.is_none() {
                            return err("`accum`: first argument must be a pointer");
                        }
                        self.protected.push((pr, ps));
                        let (vr, _) = self.expr(&args[1])?;
                        let (pr, _) = self.protected.pop().expect("protected underflow");
                        self.ops.push(Op::Accum(pr, vr));
                        return Ok(());
                    }
                    self.call_stmt(None, e)
                } else {
                    let _ = self.expr(e)?;
                    Ok(())
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let (cr, _) = self.expr(cond)?;
                debug_assert!(self.protected.is_empty());
                let then_t = self.alloc_template("then");
                let else_t = self.alloc_template("else");
                let merge_t = self.alloc_template("merge");
                // Branch arms are single-predecessor: hoisted fields carry
                // into both (the merge does not — its two predecessors
                // must agree on the frame, which is scope-only).
                let old_scope_regs: Vec<Reg> = self.scope.iter().map(|v| v.reg).collect();
                let old_prot_regs: Vec<Reg> = self.protected.iter().map(|p| p.0).collect();
                let carried = self.carried_entries(None);
                let mut args = self.boundary_args();
                args.extend(carried.iter().map(|c| c.2));
                self.finalize(Term::Branch {
                    cond: cr,
                    then_t,
                    then_args: args.clone(),
                    else_t,
                    else_args: args,
                });
                let scope_len = self.scope.len();

                self.enter_with_carry(then_t, carried.clone(), &old_scope_regs, &old_prot_regs);
                self.block(then_blk)?;
                let then_done = self.done;
                self.scope.truncate(scope_len);
                if !then_done {
                    self.finalize(Term::Jump {
                        t: merge_t,
                        args: self.boundary_args(),
                    });
                }
                self.done = false;

                self.enter_with_carry(else_t, carried, &old_scope_regs, &old_prot_regs);
                self.block(else_blk)?;
                let else_done = self.done;
                self.scope.truncate(scope_len);
                let mut merge_carry = None;
                if !else_done {
                    if then_done {
                        // The then arm returned: the merge has a single
                        // live predecessor (this one), so hoists carry
                        // through — the common `if (p == null) return;`
                        // guard keeps its fields live past the merge.
                        let osr: Vec<Reg> = self.scope.iter().map(|v| v.reg).collect();
                        let opr: Vec<Reg> = self.protected.iter().map(|p| p.0).collect();
                        let carried2 = self.carried_entries(None);
                        let mut args = self.boundary_args();
                        args.extend(carried2.iter().map(|c| c.2));
                        self.finalize(Term::Jump { t: merge_t, args });
                        merge_carry = Some((carried2, osr, opr));
                    } else {
                        self.finalize(Term::Jump {
                            t: merge_t,
                            args: self.boundary_args(),
                        });
                    }
                }

                self.done = then_done && else_done;
                if !self.done {
                    match merge_carry {
                        Some((carried2, osr, opr)) => {
                            self.enter_with_carry(merge_t, carried2, &osr, &opr)
                        }
                        None => self.enter(merge_t),
                    }
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let header = self.alloc_template("loop");
                self.finalize(Term::Jump {
                    t: header,
                    args: self.boundary_args(),
                });
                self.enter(header);
                let (cr, _) = self.expr(cond)?;
                let body_t = self.alloc_template("body");
                let exit_t = self.alloc_template("exit");
                // Body and exit are each single-predecessor (the header's
                // branch), so condition-evaluation hoists carry into both;
                // the header itself has two predecessors (entry jump and
                // back edge) and stays scope-only.
                let old_scope_regs: Vec<Reg> = self.scope.iter().map(|v| v.reg).collect();
                let old_prot_regs: Vec<Reg> = self.protected.iter().map(|p| p.0).collect();
                let carried = self.carried_entries(None);
                let mut args = self.boundary_args();
                args.extend(carried.iter().map(|c| c.2));
                self.finalize(Term::Branch {
                    cond: cr,
                    then_t: body_t,
                    then_args: args.clone(),
                    else_t: exit_t,
                    else_args: args,
                });
                let scope_len = self.scope.len();
                self.enter_with_carry(body_t, carried.clone(), &old_scope_regs, &old_prot_regs);
                self.block(body)?;
                self.scope.truncate(scope_len);
                if !self.done {
                    self.finalize(Term::Jump {
                        t: header,
                        args: self.boundary_args(),
                    });
                }
                // The exit path is reachable regardless of the body.
                self.done = false;
                self.enter_with_carry(exit_t, carried, &old_scope_regs, &old_prot_regs);
                Ok(())
            }
            Stmt::Conc(children) => {
                // Each child: a promoted call, optionally bound.
                enum Bind {
                    LetVar(String, Option<String>),
                    AssignVar(String),
                    Discard,
                }
                let mut binds = Vec::new();
                let mut counts = Vec::new();
                let mut entries = Vec::new();
                for child in children {
                    let (bind, call) = match child {
                        Stmt::Let { name, ty, value } if matches!(value, Expr::Call { .. }) => {
                            (Bind::LetVar(name.clone(), ptr_struct_of(ty)), value)
                        }
                        Stmt::Assign { name, value } if matches!(value, Expr::Call { .. }) => {
                            (Bind::AssignVar(name.clone()), value)
                        }
                        Stmt::Expr(e) if matches!(e, Expr::Call { .. }) => (Bind::Discard, e),
                        other => {
                            return err(format!(
                                "conc blocks may contain only calls or call-bound \
                                 let/assignments, found {other:?}"
                            ))
                        }
                    };
                    let (entry, has_ret, args, func) = self.resolve_call(call)?;
                    if !matches!(bind, Bind::Discard) && !has_ret {
                        return err(format!("`{func}` returns no value to bind"));
                    }
                    for a in args {
                        let (r, ps) = self.expr(a)?;
                        self.protected.push((r, ps));
                    }
                    counts.push(args.len());
                    entries.push(entry);
                    binds.push(bind);
                }
                // Collect argument registers (remapped across any splits).
                let total: usize = counts.iter().sum();
                let tail = self.protected.split_off(self.protected.len() - total);
                let mut child_specs = Vec::with_capacity(entries.len());
                let mut off = 0;
                for (entry, &n) in entries.iter().zip(&counts) {
                    let regs: Vec<Reg> = tail[off..off + n].iter().map(|p| p.0).collect();
                    off += n;
                    child_specs.push((*entry, regs));
                }
                // The join is single-predecessor: hoists carry through
                // the fork (children's results arrive after them).
                let osr: Vec<Reg> = self.scope.iter().map(|v| v.reg).collect();
                let opr: Vec<Reg> = self.protected.iter().map(|p| p.0).collect();
                let carried = self.carried_entries(None);
                let mut cont_args = self.boundary_args();
                cont_args.extend(carried.iter().map(|c| c.2));
                let cont = self.alloc_template("join");
                self.finalize(Term::Fork {
                    children: child_specs,
                    cont,
                    cont_args,
                });
                self.fork_sites += 1;
                self.enter_with_carry(cont, carried, &osr, &opr);
                // Child results arrive appended in child order.
                let base = self.next_reg;
                self.next_reg += binds.len() as Reg;
                self.templates[cont as usize].in_args = self.next_reg;
                for (i, b) in binds.into_iter().enumerate() {
                    let r = base + i as Reg;
                    match b {
                        Bind::LetVar(name, ps) => self.scope.push(ScopeVar {
                            name,
                            reg: r,
                            ptr_struct: ps,
                        }),
                        Bind::AssignVar(name) => {
                            match self.scope.iter_mut().rev().find(|v| v.name == name) {
                                Some(v) => v.reg = r,
                                None => {
                                    return err(format!("assignment to unknown variable `{name}`"))
                                }
                            }
                        }
                        Bind::Discard => {}
                    }
                }
                Ok(())
            }
        }
    }
}

/// Compile a parsed program into thread templates. Runs the `conc for`
/// desugaring pass first (see [`mod@crate::desugar`]).
pub fn compile(prog: &Program) -> Result<CompiledProgram, CompileError> {
    let prog = &crate::desugar::desugar(prog)?;
    // Struct table.
    let mut structs: HashMap<String, Vec<Field>> = HashMap::new();
    for s in &prog.structs {
        if structs.insert(s.name.clone(), s.fields.clone()).is_some() {
            return err(format!("duplicate struct `{}`", s.name));
        }
    }
    for s in &prog.structs {
        for f in &s.fields {
            if let Ty::Ptr(t) = &f.ty {
                if !structs.contains_key(t) {
                    return err(format!(
                        "field `{}.{}` references unknown struct `{t}`",
                        s.name, f.name
                    ));
                }
            }
        }
    }

    // Pre-allocate function entries so recursion and forward calls work.
    let mut templates: Vec<Template> = Vec::new();
    let mut fns: HashMap<String, (TId, usize, bool)> = HashMap::new();
    for f in &prog.funcs {
        if fns.contains_key(&f.name) {
            return err(format!("duplicate function `{}`", f.name));
        }
        let entry = templates.len() as TId;
        templates.push(Template {
            name: format!("{}#entry", f.name),
            in_args: f.params.len() as u16,
            ops: Vec::new(),
            term: Term::Ret(None),
            demand_entry: false,
        });
        fns.insert(f.name.clone(), (entry, f.params.len(), f.ret.is_some()));
    }

    let mut stats = Vec::new();
    for f in &prog.funcs {
        for p in &f.params {
            if let Ty::Ptr(t) = &p.ty {
                if !structs.contains_key(t) {
                    return err(format!(
                        "parameter `{}` of `{}` references unknown struct `{t}`",
                        p.name, f.name
                    ));
                }
            }
        }
        let entry = fns[&f.name].0;
        let mut lower = Lower {
            templates: &mut templates,
            fns: &fns,
            structs: &structs,
            fn_name: f.name.clone(),
            cur: entry,
            ops: Vec::new(),
            next_reg: f.params.len() as Reg,
            scope: f
                .params
                .iter()
                .enumerate()
                .map(|(i, p)| ScopeVar {
                    name: p.name.clone(),
                    reg: i as Reg,
                    ptr_struct: ptr_struct_of(&p.ty),
                })
                .collect(),
            protected: Vec::new(),
            hoisted: HashMap::new(),
            demand_sites: 0,
            fork_sites: 0,
            call_sites: 0,
            templates_made: 1, // the entry
            done: false,
        };
        lower.block(&f.body)?;
        if !lower.done {
            lower.finalize(Term::Ret(None));
        }
        stats.push(FnStats {
            name: f.name.clone(),
            templates: lower.templates_made,
            demand_sites: lower.demand_sites,
            fork_sites: lower.fork_sites,
            call_sites: lower.call_sites,
        });
    }

    Ok(CompiledProgram {
        templates,
        functions: prog
            .funcs
            .iter()
            .map(|f| {
                let (t, a, r) = fns[&f.name];
                (f.name.clone(), t, a, r)
            })
            .collect(),
        structs: prog
            .structs
            .iter()
            .map(|s| StructLayout {
                name: s.name.clone(),
                fields: s.fields.iter().map(|f| f.name.clone()).collect(),
            })
            .collect(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> CompiledProgram {
        compile(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn straight_line_no_touch_is_one_thread() {
        let p = compile_src("fn f(a: int, b: int) -> int { return a + b * 2; }");
        assert_eq!(p.stats[0].templates, 1);
        assert_eq!(p.stats[0].demand_sites, 0);
    }

    #[test]
    fn single_deref_splits_once_and_hoists() {
        let p = compile_src(
            "struct Node { val: int; next: Node*; }
             fn f(n: Node*) -> int { return n->val + n->next->val; }",
        );
        // n touched once (hoisted: val AND next from the same arrival),
        // n->next touched once. Two demand sites, three templates.
        assert_eq!(p.stats[0].demand_sites, 2);
        assert_eq!(p.stats[0].templates, 3);
        // The first touch template hoists both fields of Node.
        let touch = p
            .templates
            .iter()
            .find(|t| t.demand_entry && t.name.starts_with("f#"))
            .unwrap();
        let loads = touch
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Load { .. }))
            .count();
        assert_eq!(loads, 2, "both fields hoisted from one arrival");
    }

    #[test]
    fn repeated_fields_of_same_pointer_touch_once() {
        let p = compile_src(
            "struct P { x: float; y: float; z: float; }
             fn mag(p: P*) -> float {
               return p->x * p->x + p->y * p->y + p->z * p->z;
             }",
        );
        assert_eq!(
            p.stats[0].demand_sites, 1,
            "access hoisting coalesces touches"
        );
    }

    #[test]
    fn call_promotion_creates_continuation() {
        let p = compile_src(
            "fn g(x: int) -> int { return x + 1; }
             fn f(x: int) -> int { let y: int = g(x); return y * 2; }",
        );
        let f = p.stats.iter().find(|s| s.name == "f").unwrap();
        assert_eq!(f.call_sites, 1);
        assert!(f.templates >= 2);
    }

    #[test]
    fn conc_block_forks() {
        let p = compile_src(
            "struct T { l: T*; r: T*; v: int; }
             fn sum(t: T*) -> int {
               if (t == null) { return 0; }
               let a: int = 0;
               let b: int = 0;
               conc {
                 a = sum(t->l);
                 b = sum(t->r);
               }
               return a + b + t->v;
             }",
        );
        let s = &p.stats[0];
        assert_eq!(s.fork_sites, 1);
        // t is touched exactly once: l and r are hoisted together from the
        // single arrival and `t->v` after the join reuses the hoist
        // carried through the fork continuation.
        assert_eq!(s.demand_sites, 1);
        assert!(s.templates >= 4);
    }

    #[test]
    fn while_loop_retouches_after_rebind() {
        let p = compile_src(
            "struct Node { val: int; next: Node*; }
             fn sum(n: Node*) -> int {
               let acc: int = 0;
               while (n != null) {
                 acc = acc + n->val;
                 n = n->next;
               }
               return acc;
             }",
        );
        // One touch inside the loop body (val+next hoisted together).
        assert_eq!(p.stats[0].demand_sites, 1);
        assert!(p.stats[0].templates >= 4, "entry, header, body, exit");
    }

    #[test]
    fn errors_are_reported() {
        let bad = [
            ("fn f() { g(); }", "unknown function"),
            ("fn f() -> int { return f() + 0; }", "right-hand side"),
            ("fn f() -> int { return x; }", "unknown variable"),
            (
                "struct S { a: int; } fn f(s: S*) -> int { return s->b; }",
                "no field",
            ),
            (
                "fn g() -> int { return 1; } fn f() -> int { return g() + 1; }",
                "right-hand side",
            ),
            (
                "fn g(x: int) -> int { return x; } fn f() -> int { let a: int = g(); return a; }",
                "expects 1 arguments",
            ),
            ("fn f() -> int { return 1->x; }", "non-pointer"),
            (
                "struct S { a: int; } fn f(s: S*) { conc { let x: int = 3; } }",
                "conc blocks",
            ),
        ];
        for (src, needle) in bad {
            let e = compile(&parse(src).unwrap()).unwrap_err();
            assert!(
                e.msg.contains(needle),
                "source {src:?}: expected {needle:?} in {:?}",
                e.msg
            );
        }
    }

    #[test]
    fn dump_is_readable() {
        let p = compile_src(
            "struct Node { val: int; next: Node*; }
             fn f(n: Node*) -> int { return n->val; }",
        );
        let d = p.dump();
        assert!(d.contains("Demand"));
        assert!(d.contains("[demand-entry]"));
    }
}
