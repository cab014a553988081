//! Stack models: variable environments at a snapshot.

use std::fmt;

use sling_logic::Symbol;

use crate::value::Val;

/// A stack model `s : Var → Val` — the values of the in-scope variables at
/// one program point, plus the ghost variable `res` at function exits.
///
/// The bindings are a vector kept in name order (`Symbol`'s textual
/// order), one entry per variable, and looked up by symbol id: a lookup
/// scans the vector, so it is linear in the number of bindings, which is
/// a handful at a program point, and reads no symbol text. Only adding a
/// new name ([`Stack::bind`]), building a stack from unordered bindings
/// ([`FromIterator`]) and [`Stack::merge`] compare names as text, to keep
/// the order. Equal stacks hold equal vectors, so `Eq` and `Hash` agree
/// whatever order the bindings were made in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Stack {
    vars: Vec<(Symbol, Val)>,
}

impl Stack {
    /// An empty stack.
    pub fn new() -> Stack {
        Stack::default()
    }

    /// Binds `var` to `val`, returning any previous value. A new name is
    /// inserted at its place in name order.
    pub fn bind(&mut self, var: Symbol, val: Val) -> Option<Val> {
        if let Some(slot) = self.vars.iter_mut().find(|(w, _)| *w == var) {
            return Some(std::mem::replace(&mut slot.1, val));
        }
        let at = self.vars.partition_point(|(w, _)| *w < var);
        self.vars.insert(at, (var, val));
        None
    }

    /// The value of `var`, if bound.
    pub fn get(&self, var: Symbol) -> Option<Val> {
        self.vars
            .iter()
            .find(|(w, _)| *w == var)
            .map(|&(_, val)| val)
    }

    /// Binds every variable of `other` to its value there: on a name both
    /// bind, `other`'s value wins. Merges the two name-ordered vectors.
    pub fn merge(&mut self, other: &Stack) {
        let (Some(last), Some(first)) = (self.vars.last(), other.vars.first()) else {
            self.vars.extend_from_slice(&other.vars);
            return;
        };
        // Often `other`'s names all come after `self`'s: one compare.
        if last.0 < first.0 {
            self.vars.extend_from_slice(&other.vars);
            return;
        }
        let (mine, theirs) = (std::mem::take(&mut self.vars), &other.vars);
        self.vars.reserve(mine.len() + theirs.len());
        let (mut i, mut j) = (0, 0);
        while i < mine.len() && j < theirs.len() {
            let (a, b) = (mine[i], theirs[j]);
            if a.0 == b.0 {
                self.vars.push(b);
                i += 1;
                j += 1;
            } else if a.0 < b.0 {
                self.vars.push(a);
                i += 1;
            } else {
                self.vars.push(b);
                j += 1;
            }
        }
        self.vars.extend_from_slice(&mine[i..]);
        self.vars.extend_from_slice(&theirs[j..]);
    }

    /// Iterates over `(variable, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, Val)> + '_ {
        self.vars.iter().copied()
    }

    /// The bound variables, in name order.
    pub fn vars(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.vars.iter().map(|&(w, _)| w)
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

/// Sorts the bindings once, by name; of a name given more than once, the
/// last value wins (the VM and the interpreter list shadowed locals
/// before the locals that shadow them).
impl FromIterator<(Symbol, Val)> for Stack {
    fn from_iter<T: IntoIterator<Item = (Symbol, Val)>>(iter: T) -> Stack {
        let mut vars: Vec<(Symbol, Val)> = iter.into_iter().collect();
        // Stable, so a repeated name's bindings keep their order.
        vars.sort_by_key(|&(w, _)| w);
        vars.dedup_by(|later, kept| {
            let repeated = later.0 == kept.0;
            if repeated {
                kept.1 = later.1;
            }
            repeated
        });
        Stack { vars }
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
