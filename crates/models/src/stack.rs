//! Stack models: variable environments at a snapshot.

use std::collections::BTreeMap;
use std::fmt;

use sling_logic::Symbol;

use crate::value::Val;

/// A stack model `s : Var → Val` — the values of the in-scope variables at
/// one program point, plus the ghost variable `res` at function exits.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Stack {
    vars: BTreeMap<Symbol, Val>,
}

impl Stack {
    /// An empty stack.
    pub fn new() -> Stack {
        Stack::default()
    }

    /// Binds `var` to `val`, returning any previous value.
    pub fn bind(&mut self, var: Symbol, val: Val) -> Option<Val> {
        self.vars.insert(var, val)
    }

    /// The value of `var`, if bound.
    pub fn get(&self, var: Symbol) -> Option<Val> {
        self.vars.get(&var).copied()
    }

    /// Iterates over `(variable, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, Val)> + '_ {
        self.vars.iter().map(|(s, v)| (*s, *v))
    }

    /// The bound variables, in name order.
    pub fn vars(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.vars.keys().copied()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True if no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

impl FromIterator<(Symbol, Val)> for Stack {
    fn from_iter<T: IntoIterator<Item = (Symbol, Val)>>(iter: T) -> Stack {
        Stack {
            vars: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (s, v)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{s} = {v}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_get() {
        let mut s = Stack::new();
        let x = Symbol::intern("x");
        s.bind(x, Val::Int(3));
        assert_eq!(s.get(x), Some(Val::Int(3)));
        assert_eq!(s.bind(x, Val::Nil), Some(Val::Int(3)));
        assert_eq!(s.get(x), Some(Val::Nil));
    }

    #[test]
    fn display() {
        let mut s = Stack::new();
        s.bind(Symbol::intern("x"), Val::Int(1));
        assert_eq!(s.to_string(), "{x = 1}");
    }
}
