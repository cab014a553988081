//! Abstract syntax of MiniC.
//!
//! MiniC is the C-like substrate the benchmark corpus is written in. It
//! replaces the paper's C programs and LLDB, so tracing needs no C
//! toolchain or debugger. It has
//! structures with pointer and integer fields, heap allocation and `free`,
//! lexically scoped locals, conditionals, labelled loops, recursion, and
//! breakpoint labels `@name;` at which the tracer snapshots stack-heap
//! models.

use sling_logic::{Span, Symbol};

/// A type expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TyExpr {
    /// Machine integer.
    Int,
    /// Boolean (conditions and flags).
    Bool,
    /// Pointer to a named structure.
    Ptr(Symbol),
    /// No value (function returns only).
    Void,
}

impl std::fmt::Display for TyExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TyExpr::Int => f.write_str("int"),
            TyExpr::Bool => f.write_str("bool"),
            TyExpr::Ptr(s) => write!(f, "{s}*"),
            TyExpr::Void => f.write_str("void"),
        }
    }
}

/// A structure declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDecl {
    /// Structure name.
    pub name: Symbol,
    /// Fields in declaration order.
    pub fields: Vec<(Symbol, TyExpr)>,
    /// Source span of the declaration.
    pub span: Span,
}

/// One function parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Declared type.
    pub ty: TyExpr,
}

/// A function declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncDecl {
    /// Function name.
    pub name: Symbol,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type (`Void` if none declared).
    pub ret: TyExpr,
    /// Body.
    pub body: Block,
    /// Source span of the header.
    pub span: Span,
}

/// A `{ ... }` block introducing a lexical scope.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// The statements.
    pub stmts: Vec<Stmt>,
}

/// A statement with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// The statement proper.
    pub kind: StmtKind,
    /// Where it is in the source.
    pub span: Span,
}

/// Statement forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `var x: T;` or `var x: T = e;`
    VarDecl {
        /// Variable name.
        name: Symbol,
        /// Declared type.
        ty: TyExpr,
        /// Optional initializer (default: `null` / `0` / `false`).
        init: Option<Expr>,
    },
    /// `lv = e;`
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Value.
        rhs: Expr,
    },
    /// `if (e) { ... } [else { ... }]`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
    },
    /// `while [@label] (e) { ... }` — the optional label is a loop-head
    /// breakpoint hit before every condition evaluation.
    While {
        /// Loop-head breakpoint name.
        label: Option<Symbol>,
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
    },
    /// `return;` or `return e;` — an exit breakpoint with ghost `res`.
    Return(Option<Expr>),
    /// `free(e);`
    Free(Expr),
    /// An expression evaluated for effect (function call).
    ExprStmt(Expr),
    /// `@name;` — a breakpoint label.
    Label(Symbol),
}

/// An assignment target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// A variable.
    Var(Symbol),
    /// A field of a pointer expression: `e->f`.
    Field(Expr, Symbol),
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// The expression proper.
    pub kind: ExprKind,
    /// Where it is in the source.
    pub span: Span,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    Rem,
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
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// Variable reference.
    Var(Symbol),
    /// Field read `e->f`.
    Field(Box<Expr>, Symbol),
    /// `new T` or `new T { f: e, ... }`; unlisted fields default.
    New(Symbol, Vec<(Symbol, Expr)>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Function call.
    Call(Symbol, Vec<Expr>),
}

/// A whole MiniC program: structures and functions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Structure declarations.
    pub structs: Vec<StructDecl>,
    /// Function declarations.
    pub funcs: Vec<FuncDecl>,
}

impl Program {
    /// Finds a function by name.
    pub fn func(&self, name: Symbol) -> Option<&FuncDecl> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Finds a structure by name.
    pub fn strukt(&self, name: Symbol) -> Option<&StructDecl> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Builds the logic-side [`sling_logic::TypeEnv`] for this program's
    /// structures (`bool` fields become `int`).
    ///
    /// # Panics
    ///
    /// Panics on duplicate structures; run the type checker first.
    pub fn type_env(&self) -> sling_logic::TypeEnv {
        let mut env = sling_logic::TypeEnv::new();
        for s in &self.structs {
            let fields = s
                .fields
                .iter()
                .map(|(name, ty)| sling_logic::FieldDef {
                    name: *name,
                    ty: match ty {
                        TyExpr::Ptr(t) => sling_logic::FieldTy::Ptr(*t),
                        _ => sling_logic::FieldTy::Int,
                    },
                })
                .collect();
            env.define(sling_logic::StructDef {
                name: s.name,
                fields,
            })
            .expect("duplicate struct; type checker should have rejected");
        }
        env
    }

    /// All breakpoint locations of a function, in source order: `entry`,
    /// labels and loop heads, and one `exit#i` per `return`.
    pub fn locations_of(&self, func: Symbol) -> Vec<crate::trace::Location> {
        use crate::trace::Location;
        let Some(f) = self.func(func) else {
            return Vec::new();
        };
        let mut out = vec![Location::Entry];
        let mut returns = 0usize;
        fn walk(block: &Block, out: &mut Vec<crate::trace::Location>, returns: &mut usize) {
            use crate::trace::Location;
            for stmt in &block.stmts {
                match &stmt.kind {
                    StmtKind::Label(l) => out.push(Location::Label(*l)),
                    StmtKind::While { label, body, .. } => {
                        if let Some(l) = label {
                            out.push(Location::LoopHead(*l));
                        }
                        walk(body, out, returns);
                    }
                    StmtKind::If {
                        then_blk, else_blk, ..
                    } => {
                        walk(then_blk, out, returns);
                        if let Some(e) = else_blk {
                            walk(e, out, returns);
                        }
                    }
                    StmtKind::Return(_) => {
                        out.push(Location::Exit(*returns));
                        *returns += 1;
                    }
                    _ => {}
                }
            }
        }
        walk(&f.body, &mut out, &mut returns);
        out
    }
}
