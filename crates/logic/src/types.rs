//! Structure (record) types shared by the logic, the checker, and MiniC.
//!
//! A heap cell is an instance of a [`StructDef`]: a named record whose
//! fields are integers or pointers to (possibly the same) structures. A
//! [`TypeEnv`] is the registry the parser, well-formedness checker, model
//! checker, and interpreter all consult.

use std::collections::BTreeMap;
use std::fmt;

use crate::symbol::Symbol;

/// The type of a structure field or predicate parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FieldTy {
    /// A machine integer.
    Int,
    /// A pointer to a structure with the given name.
    Ptr(Symbol),
}

impl fmt::Display for FieldTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldTy::Int => f.write_str("int"),
            FieldTy::Ptr(s) => write!(f, "{s}*"),
        }
    }
}

/// One declared field of a structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: Symbol,
    /// Field type.
    pub ty: FieldTy,
}

/// A named record type, e.g. `struct Node { next: Node*, prev: Node* }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Structure name `τ`.
    pub name: Symbol,
    /// Fields in declaration order.
    pub fields: Vec<FieldDef>,
}

impl StructDef {
    /// Index of the field named `name`, if any.
    pub fn field_index(&self, name: Symbol) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The declared type of the field named `name`, if any.
    pub fn field_ty(&self, name: Symbol) -> Option<FieldTy> {
        self.fields.iter().find(|f| f.name == name).map(|f| f.ty)
    }
}

/// Error produced when registering a malformed or duplicate structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeEnvError {
    /// A structure with this name already exists.
    DuplicateStruct(Symbol),
    /// Two fields share a name.
    DuplicateField {
        /// The structure containing the clash.
        strukt: Symbol,
        /// The repeated field name.
        field: Symbol,
    },
}

impl fmt::Display for TypeEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeEnvError::DuplicateStruct(s) => write!(f, "duplicate struct `{s}`"),
            TypeEnvError::DuplicateField { strukt, field } => {
                write!(f, "duplicate field `{field}` in struct `{strukt}`")
            }
        }
    }
}

impl std::error::Error for TypeEnvError {}

/// A registry of structure definitions.
///
/// # Examples
///
/// ```
/// use sling_logic::{FieldDef, FieldTy, StructDef, Symbol, TypeEnv};
///
/// let mut env = TypeEnv::new();
/// let node = Symbol::intern("Node");
/// env.define(StructDef {
///     name: node,
///     fields: vec![FieldDef { name: Symbol::intern("next"), ty: FieldTy::Ptr(node) }],
/// })?;
/// assert!(env.get(node).is_some());
/// # Ok::<(), sling_logic::TypeEnvError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypeEnv {
    structs: BTreeMap<Symbol, StructDef>,
}

impl TypeEnv {
    /// An empty environment.
    pub fn new() -> TypeEnv {
        TypeEnv::default()
    }

    /// Registers a structure definition.
    ///
    /// # Errors
    ///
    /// Returns an error if a structure with the same name exists or the
    /// definition repeats a field name.
    pub fn define(&mut self, def: StructDef) -> Result<(), TypeEnvError> {
        let mut seen = std::collections::BTreeSet::new();
        for f in &def.fields {
            if !seen.insert(f.name) {
                return Err(TypeEnvError::DuplicateField {
                    strukt: def.name,
                    field: f.name,
                });
            }
        }
        if self.structs.contains_key(&def.name) {
            return Err(TypeEnvError::DuplicateStruct(def.name));
        }
        self.structs.insert(def.name, def);
        Ok(())
    }

    /// Looks up a structure by name.
    pub fn get(&self, name: Symbol) -> Option<&StructDef> {
        self.structs.get(&name)
    }

    /// Iterates over all definitions in name order.
    pub fn iter(&self) -> impl Iterator<Item = &StructDef> {
        self.structs.values()
    }

    /// Number of registered structures.
    pub fn len(&self) -> usize {
        self.structs.len()
    }

    /// True if no structures are registered.
    pub fn is_empty(&self) -> bool {
        self.structs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_def() -> StructDef {
        let node = Symbol::intern("Node");
        StructDef {
            name: node,
            fields: vec![
                FieldDef {
                    name: Symbol::intern("next"),
                    ty: FieldTy::Ptr(node),
                },
                FieldDef {
                    name: Symbol::intern("data"),
                    ty: FieldTy::Int,
                },
            ],
        }
    }

    #[test]
    fn define_and_lookup() {
        let mut env = TypeEnv::new();
        env.define(node_def()).unwrap();
        let def = env.get(Symbol::intern("Node")).unwrap();
        assert_eq!(def.fields.len(), 2);
        assert_eq!(def.field_index(Symbol::intern("data")), Some(1));
        assert_eq!(
            def.field_ty(Symbol::intern("next")),
            Some(FieldTy::Ptr(Symbol::intern("Node")))
        );
    }

    #[test]
    fn duplicate_struct_rejected() {
        let mut env = TypeEnv::new();
        env.define(node_def()).unwrap();
        assert_eq!(
            env.define(node_def()),
            Err(TypeEnvError::DuplicateStruct(Symbol::intern("Node")))
        );
    }

    #[test]
    fn duplicate_field_rejected() {
        let mut env = TypeEnv::new();
        let s = Symbol::intern("Bad");
        let f = Symbol::intern("f");
        let def = StructDef {
            name: s,
            fields: vec![
                FieldDef {
                    name: f,
                    ty: FieldTy::Int,
                },
                FieldDef {
                    name: f,
                    ty: FieldTy::Int,
                },
            ],
        };
        assert!(env.define(def).is_err());
    }
}
