//! Inductive heap predicate definitions.
//!
//! A predicate such as the paper's doubly linked list
//!
//! ```text
//! dll(hd, pr, tl, nx) := emp & hd == nx & pr == tl
//!                      | exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx)
//! ```
//!
//! is a [`PredDef`]: named parameters with declared types and a disjunction
//! of symbolic-heap cases. A [`PredEnv`] is the set `P` given to SLING.

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::{Expr, SymHeap};
use crate::subst::{subst_symheap, Subst};
use crate::symbol::Symbol;
use crate::types::FieldTy;

/// One formal parameter of an inductive predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredParam {
    /// Parameter name, e.g. `hd`.
    pub name: Symbol,
    /// Declared type, e.g. `Node*`.
    pub ty: FieldTy,
}

/// An inductive heap predicate definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredDef {
    /// Predicate name, e.g. `dll`.
    pub name: Symbol,
    /// Formal parameters in order.
    pub params: Vec<PredParam>,
    /// Definition cases (disjuncts). The base case(s) typically constrain
    /// the heap to `emp`; inductive case(s) contain at least one points-to.
    pub cases: Vec<SymHeap>,
}

impl PredDef {
    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Instantiates the definition's cases with actual arguments.
    ///
    /// Returns each case with formals replaced by `args` (capture-avoiding).
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.arity()`; the caller (the model
    /// checker) always constructs arity-correct applications.
    pub fn unfold(&self, args: &[Expr]) -> Vec<SymHeap> {
        assert_eq!(
            args.len(),
            self.arity(),
            "arity mismatch unfolding `{}`",
            self.name
        );
        let map: Subst = self
            .params
            .iter()
            .zip(args)
            .map(|(p, a)| (p.name, a.clone()))
            .collect();
        self.cases.iter().map(|c| subst_symheap(c, &map)).collect()
    }

    /// True if some parameter has pointer type `ty`.
    ///
    /// SLING filters the predicate set to those matching the root pointer's
    /// type (§4.2 "For optimization, we filter...").
    pub fn mentions_ptr_type(&self, ty: Symbol) -> bool {
        self.params.iter().any(|p| p.ty == FieldTy::Ptr(ty))
    }
}

impl fmt::Display for PredDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pred {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}: {}", p.name, p.ty)?;
        }
        f.write_str(") :=\n")?;
        for (i, c) in self.cases.iter().enumerate() {
            writeln!(f, "  {} {}", if i == 0 { " " } else { "|" }, c)?;
        }
        f.write_str(";")
    }
}

/// Error registering a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredEnvError {
    /// A predicate with this name already exists.
    Duplicate(Symbol),
}

impl fmt::Display for PredEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredEnvError::Duplicate(s) => write!(f, "duplicate predicate `{s}`"),
        }
    }
}

impl std::error::Error for PredEnvError {}

/// The set `P` of predefined predicates given to SLING.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredEnv {
    defs: BTreeMap<Symbol, PredDef>,
}

impl PredEnv {
    /// An empty environment.
    pub fn new() -> PredEnv {
        PredEnv::default()
    }

    /// Registers a predicate definition.
    ///
    /// # Errors
    ///
    /// Returns [`PredEnvError::Duplicate`] if the name is taken.
    pub fn define(&mut self, def: PredDef) -> Result<(), PredEnvError> {
        if self.defs.contains_key(&def.name) {
            return Err(PredEnvError::Duplicate(def.name));
        }
        self.defs.insert(def.name, def);
        Ok(())
    }

    /// Looks up a predicate by name.
    pub fn get(&self, name: Symbol) -> Option<&PredDef> {
        self.defs.get(&name)
    }

    /// Iterates over definitions in name order.
    pub fn iter(&self) -> impl Iterator<Item = &PredDef> {
        self.defs.values()
    }

    /// Predicates with at least one parameter of pointer type `ty`
    /// (the Algorithm 2 pre-filter).
    pub fn for_root_type(&self, ty: Symbol) -> Vec<&PredDef> {
        self.iter().filter(|d| d.mentions_ptr_type(ty)).collect()
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_predicates;
    use crate::types::FieldTy;

    const DLL: &str = r#"
        pred dll(hd: Node*, pr: Node*, tl: Node*, nx: Node*) :=
            emp & hd == nx & pr == tl
          | exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx)
        ;
    "#;

    fn node_env() -> crate::types::TypeEnv {
        let mut env = crate::types::TypeEnv::new();
        let node = Symbol::intern("Node");
        env.define(crate::types::StructDef {
            name: node,
            fields: vec![
                crate::types::FieldDef {
                    name: Symbol::intern("next"),
                    ty: FieldTy::Ptr(node),
                },
                crate::types::FieldDef {
                    name: Symbol::intern("prev"),
                    ty: FieldTy::Ptr(node),
                },
            ],
        })
        .unwrap();
        env
    }

    #[test]
    fn unfold_substitutes_params() {
        let _ = node_env();
        let preds = parse_predicates(DLL).unwrap();
        let dll = &preds[0];
        let args = vec![Expr::var("a"), Expr::Nil, Expr::var("t"), Expr::Nil];
        let cases = dll.unfold(&args);
        assert_eq!(cases.len(), 2);
        // Base case: emp & a == nil & nil == t
        assert!(cases[0].spatial.is_empty());
        assert_eq!(cases[0].pure.len(), 2);
        // Inductive case roots the points-to at `a`.
        match &cases[1].spatial[0] {
            crate::ast::SpatialAtom::PointsTo { root, .. } => assert_eq!(*root, Expr::var("a")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn type_filter() {
        let preds = parse_predicates(DLL).unwrap();
        let mut env = PredEnv::new();
        env.define(preds[0].clone()).unwrap();
        assert_eq!(env.for_root_type(Symbol::intern("Node")).len(), 1);
        assert_eq!(env.for_root_type(Symbol::intern("Tree")).len(), 0);
    }

    #[test]
    fn duplicate_rejected() {
        let preds = parse_predicates(DLL).unwrap();
        let mut env = PredEnv::new();
        env.define(preds[0].clone()).unwrap();
        assert!(env.define(preds[0].clone()).is_err());
    }

    #[test]
    fn complexity_stats() {
        let preds = parse_predicates(DLL).unwrap();
        assert_eq!(preds[0].arity(), 4);
    }
}
