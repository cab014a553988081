//! Existential instantiations (the `ι` of Definition 1).

use std::fmt;

use sling_logic::Symbol;
use sling_models::{Stack, Val};

/// A mapping from existential variables to concrete values, produced by a
/// successful model check.
///
/// Unconstrained existentials (ones the model never forces a value for) are
/// absent; SLING's pure inference only derives equalities between variables
/// that are *present* in every model's instantiation.
///
/// The bindings are kept as a [`Stack`]'s are: a vector in name order,
/// looked up by symbol id, so a lookup is linear in the number of
/// bindings and reads no symbol text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Instantiation {
    map: Stack,
}

impl Instantiation {
    /// The empty instantiation.
    pub fn new() -> Instantiation {
        Instantiation::default()
    }

    /// Builds an instantiation from `(variable, value)` pairs, sorting
    /// them once; of a variable given more than once, the last value wins.
    pub fn from_bindings<I: IntoIterator<Item = (Symbol, Val)>>(iter: I) -> Instantiation {
        Instantiation {
            map: iter.into_iter().collect(),
        }
    }

    /// The value of `var`, if the model constrained it.
    pub fn get(&self, var: Symbol) -> Option<Val> {
        self.map.get(var)
    }

    /// Iterates over `(variable, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, Val)> + '_ {
        self.map.iter()
    }

    /// Adds or replaces a binding.
    pub fn bind(&mut self, var: Symbol, val: Val) -> Option<Val> {
        self.map.bind(var, val)
    }

    /// Merges another instantiation (per Algorithm 1's `I ⊕ I'`).
    /// Later bindings win on clash (clashes do not occur in practice:
    /// the algorithm merges instantiations of disjoint existential sets).
    pub fn merge(&mut self, other: &Instantiation) {
        self.map.merge(&other.map);
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl FromIterator<(Symbol, Val)> for Instantiation {
    fn from_iter<T: IntoIterator<Item = (Symbol, Val)>>(iter: T) -> Instantiation {
        Instantiation::from_bindings(iter)
    }
}

impl fmt::Display for Instantiation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ι{")?;
        for (i, (s, v)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{s} := {v}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sling_models::Loc;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;
    use std::hash::{Hash, Hasher};

    #[test]
    fn bind_get_merge() {
        let u = Symbol::intern("u1");
        let v = Symbol::intern("u2");
        let mut a = Instantiation::new();
        a.bind(u, Val::Addr(Loc::new(1)));
        let mut b = Instantiation::new();
        b.bind(v, Val::Nil);
        a.merge(&b);
        assert_eq!(a.get(u), Some(Val::Addr(Loc::new(1))));
        assert_eq!(a.get(v), Some(Val::Nil));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn display() {
        let mut a = Instantiation::new();
        a.bind(Symbol::intern("u1"), Val::Addr(Loc::new(3)));
        assert_eq!(a.to_string(), "ι{u1 := 0x03}");
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Random `bind`s (of new and bound names), `merge`s and rebuilds from
    /// bindings with repeated names, on a `Stack` and an `Instantiation`,
    /// agree with a `BTreeMap` after every step: `get`, `iter`, `vars`
    /// and `len` see what the map sees. The names are interned in reverse
    /// textual order, so id order and name order disagree. The same
    /// bindings made in another order give an equal stack with an equal
    /// hash, as `select_models`' dedupe relies on.
    #[test]
    fn bindings_agree_with_a_map_model() {
        let names: Vec<Symbol> = (0..8)
            .rev()
            .map(|i| Symbol::intern(&format!("inst_ref_{i}")))
            .collect();
        let mut rng = StdRng::seed_from_u64(0x1d5);
        let binding = |rng: &mut StdRng| {
            (
                names[rng.gen_range(0..8usize)],
                Val::Int(rng.gen_range(0..4)),
            )
        };
        let bindings = |rng: &mut StdRng| -> Vec<(Symbol, Val)> {
            (0..rng.gen_range(0..10usize))
                .map(|_| binding(rng))
                .collect()
        };
        for round in 0..400 {
            let (mut stack, mut inst, mut model) =
                (Stack::new(), Instantiation::new(), BTreeMap::new());
            for step in 0..rng.gen_range(1..12) {
                match rng.gen_range(0..4) {
                    0 | 1 => {
                        let (w, val) = binding(&mut rng);
                        let old = model.insert(w, val);
                        assert_eq!(stack.bind(w, val), old);
                        assert_eq!(inst.bind(w, val), old);
                    }
                    2 => {
                        let other = bindings(&mut rng);
                        stack.merge(&other.iter().copied().collect());
                        inst.merge(&Instantiation::from_bindings(other.iter().copied()));
                        model.extend(other);
                    }
                    _ => {
                        let fresh = bindings(&mut rng);
                        stack = fresh.iter().copied().collect();
                        inst = fresh.iter().copied().collect();
                        model = fresh.into_iter().collect();
                    }
                }
                let at = format!("round {round}, step {step}");
                let expect: Vec<(Symbol, Val)> = model.iter().map(|(&w, &v)| (w, v)).collect();
                assert_eq!(stack.iter().collect::<Vec<_>>(), expect, "{at}");
                assert_eq!(inst.iter().collect::<Vec<_>>(), expect, "{at}");
                let vars: Vec<Symbol> = model.keys().copied().collect();
                assert_eq!(stack.vars().collect::<Vec<_>>(), vars, "{at}");
                assert_eq!(
                    (stack.len(), inst.len()),
                    (model.len(), model.len()),
                    "{at}"
                );
                for &w in &names {
                    assert_eq!(stack.get(w), model.get(&w).copied(), "{at}: {w}");
                    assert_eq!(inst.get(w), model.get(&w).copied(), "{at}: {w}");
                }
                // The same bindings, shuffled, collected and bound one by one.
                let mut shuffled = expect.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.gen_range(0..=i));
                }
                let collected: Stack = shuffled.iter().copied().collect();
                let mut bound = Stack::new();
                for &(w, val) in &shuffled {
                    bound.bind(w, val);
                }
                for built in [collected, bound] {
                    assert_eq!(built, stack, "{at}");
                    assert_eq!(hash_of(&built), hash_of(&stack), "{at}");
                }
                assert_eq!(Instantiation::from_bindings(shuffled), inst, "{at}");
            }
        }
    }
}
