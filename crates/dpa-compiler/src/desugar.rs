//! Desugaring of `conc for` into recursive binary-split `conc` pairs.
//!
//! The paper's concurrent loop
//!
//! ```text
//! conc for (i = lo; i < hi; i = i + 1) { body(i); }
//! ```
//!
//! becomes a synthesized helper function
//!
//! ```text
//! fn __concfor_K(__lo: int, __hi: int, <captured vars>) {
//!   if (__hi - __lo < 1) { return; }
//!   if (__hi - __lo == 1) { let i: int = __lo; <body> return; }
//!   let __mid: int = __lo + (__hi - __lo) / 2;
//!   conc {
//!     __concfor_K(__lo, __mid, <captured>);
//!     __concfor_K(__mid, __hi, <captured>);
//!   }
//! }
//! ```
//!
//! plus a call at the original site. The split tree exposes the loop's
//! concurrency to the runtime in O(log n) fork depth, and the runtime's
//! k-bounded admission strip-mines whatever reaches the top level —
//! exactly how the paper treats top-level `conc` loops.
//!
//! The pass runs before lowering; it needs the enclosing scope's types for
//! the captured free variables, so it tracks declarations as it walks.

use crate::ast::*;
use crate::compile::CompileError;
use std::collections::{BTreeMap, HashMap};

fn err<T>(msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError { msg: msg.into() })
}

/// Collect variables *used* by an expression.
fn expr_uses(e: &Expr, out: &mut BTreeMap<String, ()>) {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Null => {}
        Expr::Var(v) => {
            out.insert(v.clone(), ());
        }
        Expr::Bin(_, a, b) => {
            expr_uses(a, out);
            expr_uses(b, out);
        }
        Expr::FieldRead { base, .. } => expr_uses(base, out),
        Expr::Call { args, .. } => {
            for a in args {
                expr_uses(a, out);
            }
        }
    }
}

/// Variables used by a block but not defined within it (before use).
fn free_vars(block: &[Stmt], bound: &mut Vec<String>, out: &mut BTreeMap<String, ()>) {
    let depth = bound.len();
    for s in block {
        match s {
            Stmt::Let { name, value, .. } => {
                expr_uses_filtered(value, bound, out);
                bound.push(name.clone());
            }
            Stmt::Assign { name, value } => {
                expr_uses_filtered(value, bound, out);
                if !bound.contains(name) {
                    out.insert(name.clone(), ());
                }
            }
            Stmt::Return(v) => {
                if let Some(v) = v {
                    expr_uses_filtered(v, bound, out);
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                expr_uses_filtered(cond, bound, out);
                free_vars(then_blk, bound, out);
                free_vars(else_blk, bound, out);
            }
            Stmt::While { cond, body } => {
                expr_uses_filtered(cond, bound, out);
                free_vars(body, bound, out);
            }
            Stmt::Conc(body) => free_vars(body, bound, out),
            Stmt::ConcFor { var, lo, hi, body } => {
                expr_uses_filtered(lo, bound, out);
                expr_uses_filtered(hi, bound, out);
                bound.push(var.clone());
                free_vars(body, bound, out);
                bound.pop();
            }
            Stmt::Expr(e) => expr_uses_filtered(e, bound, out),
        }
    }
    bound.truncate(depth);
}

fn expr_uses_filtered(e: &Expr, bound: &[String], out: &mut BTreeMap<String, ()>) {
    let mut used = BTreeMap::new();
    expr_uses(e, &mut used);
    for (v, ()) in used {
        if !bound.contains(&v) {
            out.insert(v, ());
        }
    }
}

struct Desugar {
    counter: u32,
    synthesized: Vec<FnDecl>,
}

impl Desugar {
    /// Rewrite a block in place; `scope` maps visible variables to types.
    fn block(
        &mut self,
        stmts: Vec<Stmt>,
        scope: &mut HashMap<String, Ty>,
    ) -> Result<Vec<Stmt>, CompileError> {
        let mut out = Vec::with_capacity(stmts.len());
        let mut declared: Vec<String> = Vec::new();
        for s in stmts {
            match s {
                Stmt::ConcFor { var, lo, hi, body } => {
                    // Free variables of the body (minus the loop var) must
                    // all be in scope; they become captured parameters.
                    let mut bound = vec![var.clone()];
                    let mut free = BTreeMap::new();
                    free_vars(&body, &mut bound, &mut free);
                    let mut captured: Vec<Field> = Vec::new();
                    for (name, ()) in free {
                        // Calls also surface function names via Var? No —
                        // Call carries its callee separately; every entry
                        // here is a real variable.
                        match scope.get(&name) {
                            Some(ty) => captured.push(Field {
                                name,
                                ty: ty.clone(),
                            }),
                            None => {
                                return err(format!(
                                    "conc for: `{name}` used in the body is not in scope"
                                ))
                            }
                        }
                    }

                    let fname = format!("__concfor_{}", self.counter);
                    self.counter += 1;
                    let v = |n: &str| Expr::Var(n.to_string());
                    let span = Expr::Bin(BinOp::Sub, Box::new(v("__hi")), Box::new(v("__lo")));
                    let call_with = |a: &str, b: &str, captured: &[Field]| Expr::Call {
                        func: fname.clone(),
                        args: std::iter::once(v(a))
                            .chain(std::iter::once(v(b)))
                            .chain(captured.iter().map(|f| Expr::Var(f.name.clone())))
                            .collect(),
                    };

                    // Recursively desugar the body too (nested conc for).
                    let mut inner_scope = scope.clone();
                    inner_scope.insert(var.clone(), Ty::Int);
                    for f in &captured {
                        inner_scope.insert(f.name.clone(), f.ty.clone());
                    }
                    let body = self.block(body, &mut inner_scope)?;

                    let mut base_blk = vec![Stmt::Let {
                        name: var.clone(),
                        ty: Ty::Int,
                        value: v("__lo"),
                    }];
                    base_blk.extend(body);
                    base_blk.push(Stmt::Return(None));

                    let helper = FnDecl {
                        name: fname.clone(),
                        params: std::iter::once(Field {
                            name: "__lo".into(),
                            ty: Ty::Int,
                        })
                        .chain(std::iter::once(Field {
                            name: "__hi".into(),
                            ty: Ty::Int,
                        }))
                        .chain(captured.iter().cloned())
                        .collect(),
                        ret: None,
                        body: vec![
                            Stmt::If {
                                cond: Expr::Bin(
                                    BinOp::Lt,
                                    Box::new(span.clone()),
                                    Box::new(Expr::Int(1)),
                                ),
                                then_blk: vec![Stmt::Return(None)],
                                else_blk: vec![],
                            },
                            Stmt::If {
                                cond: Expr::Bin(
                                    BinOp::Eq,
                                    Box::new(span.clone()),
                                    Box::new(Expr::Int(1)),
                                ),
                                then_blk: base_blk,
                                else_blk: vec![],
                            },
                            Stmt::Let {
                                name: "__mid".into(),
                                ty: Ty::Int,
                                value: Expr::Bin(
                                    BinOp::Add,
                                    Box::new(v("__lo")),
                                    Box::new(Expr::Bin(
                                        BinOp::Div,
                                        Box::new(span),
                                        Box::new(Expr::Int(2)),
                                    )),
                                ),
                            },
                            Stmt::Conc(vec![
                                Stmt::Expr(call_with("__lo", "__mid", &captured)),
                                Stmt::Expr(call_with("__mid", "__hi", &captured)),
                            ]),
                        ],
                    };
                    self.synthesized.push(helper);

                    // The original site becomes a plain helper call.
                    out.push(Stmt::Expr(Expr::Call {
                        func: fname,
                        args: std::iter::once(lo)
                            .chain(std::iter::once(hi))
                            .chain(captured.iter().map(|f| Expr::Var(f.name.clone())))
                            .collect(),
                    }));
                }
                Stmt::Let { name, ty, value } => {
                    scope.insert(name.clone(), ty.clone());
                    declared.push(name.clone());
                    out.push(Stmt::Let { name, ty, value });
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let then_blk = self.block(then_blk, &mut scope.clone())?;
                    let else_blk = self.block(else_blk, &mut scope.clone())?;
                    out.push(Stmt::If {
                        cond,
                        then_blk,
                        else_blk,
                    });
                }
                Stmt::While { cond, body } => {
                    let body = self.block(body, &mut scope.clone())?;
                    out.push(Stmt::While { cond, body });
                }
                Stmt::Conc(body) => {
                    let body = self.block(body, &mut scope.clone())?;
                    out.push(Stmt::Conc(body));
                }
                other => out.push(other),
            }
        }
        for d in declared {
            scope.remove(&d);
        }
        Ok(out)
    }
}

/// Replace every `conc for` in `prog` with a synthesized recursive
/// binary-split helper plus a call. Returns the rewritten program.
pub fn desugar(prog: &Program) -> Result<Program, CompileError> {
    let mut d = Desugar {
        counter: 0,
        synthesized: Vec::new(),
    };
    let mut funcs = Vec::with_capacity(prog.funcs.len());
    for f in &prog.funcs {
        let mut scope: HashMap<String, Ty> = f
            .params
            .iter()
            .map(|p| (p.name.clone(), p.ty.clone()))
            .collect();
        let body = d.block(f.body.clone(), &mut scope)?;
        funcs.push(FnDecl {
            name: f.name.clone(),
            params: f.params.clone(),
            ret: f.ret.clone(),
            body,
        });
    }
    funcs.extend(d.synthesized);
    Ok(Program {
        structs: prog.structs.clone(),
        funcs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn conc_for_synthesizes_helper() {
        let prog = parse(
            "fn work(i: int, scale: int) -> int { return i * scale; }
             fn kernel(n: int, scale: int) {
               conc for (i = 0; i < n; i = i + 1) {
                 work(i, scale);
               }
             }",
        )
        .unwrap();
        let out = desugar(&prog).unwrap();
        assert_eq!(out.funcs.len(), 3);
        let helper = &out.funcs[2];
        assert!(helper.name.starts_with("__concfor_"));
        // __lo, __hi, plus the captured `scale` (not `i`, not `n`).
        let names: Vec<&str> = helper.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["__lo", "__hi", "scale"]);
        // The original site is now a call.
        match &out.funcs[1].body[0] {
            Stmt::Expr(Expr::Call { func, args }) => {
                assert_eq!(func, &helper.name);
                assert_eq!(args.len(), 3);
            }
            other => panic!("expected helper call, got {other:?}"),
        }
    }

    #[test]
    fn out_of_scope_capture_is_an_error() {
        let prog = parse(
            "fn g(i: int) -> int { return i; }
             fn kernel(n: int) {
               conc for (i = 0; i < n; i = i + 1) { g(mystery); }
             }",
        )
        .unwrap();
        let e = desugar(&prog).unwrap_err();
        assert!(e.msg.contains("mystery"), "{e}");
    }

    #[test]
    fn nested_conc_for_desugars_both() {
        let prog = parse(
            "fn g(i: int, j: int) -> int { return i + j; }
             fn kernel(n: int) {
               conc for (i = 0; i < n; i = i + 1) {
                 conc for (j = 0; j < n; j = j + 1) {
                   g(i, j);
                 }
               }
             }",
        )
        .unwrap();
        let out = desugar(&prog).unwrap();
        let helpers = out
            .funcs
            .iter()
            .filter(|f| f.name.starts_with("__concfor_"))
            .count();
        assert_eq!(helpers, 2);
    }

    #[test]
    fn plain_program_unchanged() {
        let prog = parse("fn f(a: int) -> int { return a + 1; }").unwrap();
        let out = desugar(&prog).unwrap();
        assert_eq!(out, prog);
    }
}
