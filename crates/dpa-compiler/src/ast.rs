//! Abstract syntax for Mini-ICC — the ICC++-like kernel language the
//! compiler half of DPA operates on.
//!
//! The subset covers what the paper's examples need: struct declarations
//! with pointer fields, recursive functions, `if`/`while`, arithmetic, the
//! `conc { … }` block-level concurrency annotation, and pointer field
//! reads (`e->f`) — the *touches* the partitioner splits threads at.

use std::fmt;

/// A source type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ty {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Pointer to a named struct (global: potentially remote).
    Ptr(String),
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Float => write!(f, "float"),
            Ty::Ptr(s) => write!(f, "{s}*"),
        }
    }
}

/// A struct field declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
}

/// A struct declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct StructDecl {
    /// Struct name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<Field>,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// The null pointer literal.
    Null,
    /// Variable reference.
    Var(String),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Pointer field read `base->field` — a *touch* of `base`.
    FieldRead {
        /// Pointer expression being dereferenced.
        base: Box<Expr>,
        /// Field name.
        field: String,
    },
    /// Function call. The compiler requires calls to appear only as the
    /// full right-hand side of a `let`/assignment or as a statement
    /// (function promotion turns them into thread spawns).
    Call {
        /// Callee name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

/// A statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `let x: ty = e;`
    Let {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Ty,
        /// Initializer.
        value: Expr,
    },
    /// `x = e;`
    Assign {
        /// Target variable.
        name: String,
        /// New value.
        value: Expr,
    },
    /// `return e?;`
    Return(Option<Expr>),
    /// `if (c) { … } else { … }`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_blk: Vec<Stmt>,
    },
    /// `while (c) { … }`
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `conc { … }` — statements may execute in any interleaving; the
    /// block joins before control continues.
    Conc(Vec<Stmt>),
    /// Expression statement (a call evaluated for effect/at join).
    Expr(Expr),
}

/// A function declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct FnDecl {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Field>,
    /// Return type (`None` = void).
    pub ret: Option<Ty>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A whole program: structs plus functions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Struct declarations.
    pub structs: Vec<StructDecl>,
    /// Function declarations.
    pub funcs: Vec<FnDecl>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        assert_eq!(Ty::Int.to_string(), "int");
        assert_eq!(Ty::Ptr("Node".into()).to_string(), "Node*");
    }
}
