//! Recursive-descent parser for Mini-ICC.

use crate::ast::*;
use crate::lexer::{lex, Spanned, SyntaxError, Tok};

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

/// Parse a full program from source text.
pub fn parse(src: &str) -> Result<Program, SyntaxError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut prog = Program::default();
    loop {
        match p.peek() {
            Tok::Kw("struct") => prog.structs.push(p.struct_decl()?),
            Tok::Kw("fn") => prog.funcs.push(p.fn_decl()?),
            Tok::Eof => break,
            t => return Err(p.err(format!("expected `struct` or `fn`, found {t}"))),
        }
    }
    Ok(prog)
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn err(&self, msg: String) -> SyntaxError {
        SyntaxError {
            msg,
            line: self.line(),
        }
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), SyntaxError> {
        match self.bump() {
            Tok::Punct(q) if q == p => Ok(()),
            t => Err(self.err(format!("expected `{p}`, found {t}"))),
        }
    }

    fn expect_kw(&mut self, k: &'static str) -> Result<(), SyntaxError> {
        match self.bump() {
            Tok::Kw(q) if q == k => Ok(()),
            t => Err(self.err(format!("expected `{k}`, found {t}"))),
        }
    }

    fn ident(&mut self) -> Result<String, SyntaxError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            t => Err(self.err(format!("expected identifier, found {t}"))),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ty(&mut self) -> Result<Ty, SyntaxError> {
        match self.bump() {
            Tok::Kw("int") => Ok(Ty::Int),
            Tok::Kw("float") => Ok(Ty::Float),
            Tok::Ident(name) => {
                self.expect_punct("*")?;
                Ok(Ty::Ptr(name))
            }
            t => Err(self.err(format!("expected a type, found {t}"))),
        }
    }

    fn struct_decl(&mut self) -> Result<StructDecl, SyntaxError> {
        self.expect_kw("struct")?;
        let name = self.ident()?;
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        while !self.eat_punct("}") {
            let fname = self.ident()?;
            self.expect_punct(":")?;
            let ty = self.ty()?;
            self.expect_punct(";")?;
            fields.push(Field { name: fname, ty });
        }
        Ok(StructDecl { name, fields })
    }

    fn fn_decl(&mut self) -> Result<FnDecl, SyntaxError> {
        self.expect_kw("fn")?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let pname = self.ident()?;
                self.expect_punct(":")?;
                let ty = self.ty()?;
                params.push(Field { name: pname, ty });
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let ret = if self.eat_punct("-") {
            // tolerate `- >`? No: `->` is a single token; handle below.
            return Err(self.err("expected `->` or `{`".into()));
        } else if matches!(self.peek(), Tok::Punct("->")) {
            self.bump();
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FnDecl {
            name,
            params,
            ret,
            body,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, SyntaxError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, SyntaxError> {
        match self.peek().clone() {
            Tok::Kw("let") => {
                self.bump();
                let name = self.ident()?;
                self.expect_punct(":")?;
                let ty = self.ty()?;
                self.expect_punct("=")?;
                let value = self.expr()?;
                self.expect_punct(";")?;
                Ok(Stmt::Let { name, ty, value })
            }
            Tok::Kw("return") => {
                self.bump();
                if self.eat_punct(";") {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Tok::Kw("if") => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                let then_blk = self.block()?;
                let else_blk = if matches!(self.peek(), Tok::Kw("else")) {
                    self.bump();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                })
            }
            Tok::Kw("while") => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Kw("conc") => {
                self.bump();
                Ok(Stmt::Conc(self.block()?))
            }
            Tok::Ident(name) => {
                // Lookahead for `name = expr;` vs expression statement.
                if matches!(&self.toks[self.pos + 1].tok, Tok::Punct("=")) {
                    self.bump();
                    self.bump();
                    let value = self.expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Assign { name, value })
                } else {
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Expr(e))
                }
            }
            t => Err(self.err(format!("expected a statement, found {t}"))),
        }
    }

    fn expr(&mut self) -> Result<Expr, SyntaxError> {
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, SyntaxError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Tok::Punct("==") => Some(BinOp::Eq),
            Tok::Punct("!=") => Some(BinOp::Ne),
            Tok::Punct("<") => Some(BinOp::Lt),
            Tok::Punct("<=") => Some(BinOp::Le),
            Tok::Punct(">") => Some(BinOp::Gt),
            Tok::Punct(">=") => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.additive()?;
            Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn additive(&mut self) -> Result<Expr, SyntaxError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("+") => BinOp::Add,
                Tok::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, SyntaxError> {
        let mut lhs = self.postfix()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("*") => BinOp::Mul,
                Tok::Punct("/") => BinOp::Div,
                Tok::Punct("%") => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.postfix()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn postfix(&mut self) -> Result<Expr, SyntaxError> {
        let mut e = self.primary()?;
        while matches!(self.peek(), Tok::Punct("->")) {
            self.bump();
            let field = self.ident()?;
            e = Expr::FieldRead {
                base: Box::new(e),
                field,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, SyntaxError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::Kw("null") => Ok(Expr::Null),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    Ok(Expr::Call { func: name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            t => Err(self.err(format!("expected an expression, found {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_struct_and_fn() {
        let p = parse(
            "struct Node { val: int; next: Node*; }
             fn sum(n: Node*) -> int {
               if (n == null) { return 0; }
               let v: int = n->val;
               let rest: int = sum(n->next);
               return v + rest;
             }",
        )
        .unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 2);
        let f = &p.funcs[0];
        assert_eq!(f.name, "sum");
        assert_eq!(f.ret, Some(Ty::Int));
        assert_eq!(f.body.len(), 4);
    }

    #[test]
    fn parse_conc_block() {
        let p = parse(
            "fn f(a: T*) {
               conc {
                 g(a);
                 g(a);
               }
             }",
        )
        .unwrap();
        match &p.funcs[0].body[0] {
            Stmt::Conc(stmts) => assert_eq!(stmts.len(), 2),
            other => panic!("expected conc, got {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let p = parse("fn f() -> int { return 1 + 2 * 3; }").unwrap();
        match &p.funcs[0].body[0] {
            Stmt::Return(Some(Expr::Bin(BinOp::Add, _, rhs))) => {
                assert!(matches!(**rhs, Expr::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chained_field_reads() {
        let p = parse("fn f(n: Node*) -> int { return n->next->val; }").unwrap();
        match &p.funcs[0].body[0] {
            Stmt::Return(Some(Expr::FieldRead { base, field })) => {
                assert_eq!(field, "val");
                assert!(matches!(**base, Expr::FieldRead { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn while_and_assign() {
        let p = parse(
            "fn f(n: Node*) -> int {
               let acc: int = 0;
               while (n != null) {
                 acc = acc + n->val;
                 n = n->next;
               }
               return acc;
             }",
        )
        .unwrap();
        assert!(matches!(p.funcs[0].body[1], Stmt::While { .. }));
    }

    #[test]
    fn error_reports_line() {
        for (src, line) in [
            ("fn f() {\n let = 3;\n}", 2),
            (
                "fn k(n: int) {\n\n conc for (i = 0; i < n; i = i + 1) { k(n); }\n}",
                3,
            ),
        ] {
            let e = parse(src).unwrap_err();
            assert_eq!(e.line, line, "{src:?}: {e}");
        }
    }
}
