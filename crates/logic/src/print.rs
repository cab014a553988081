//! Pretty-printing of SL formulae in the paper's concrete syntax.
//!
//! One printer, [`write_symheap`], serves both the `Display` impls here
//! and the checker's cache keys. Given a binder prefix it spells every
//! bound variable positionally, so alpha-equivalent formulas print the
//! same text without a renaming pass.
//!
//! The printed form round-trips through [`crate::parser::parse_formula`]:
//! `parse(print(f)) == f` up to binder names (property-tested in the
//! integration suite).

use std::fmt;

use crate::ast::{Expr, PureAtom, SpatialAtom, SymHeap};
use crate::symbol::Symbol;

/// Writes `h` in the concrete syntax to `out`; `Display` for
/// [`SymHeap`] is this with no prefix.
///
/// With `Some(prefix)`, a variable bound by `h.exists` prints as `prefix`
/// followed by its *last* position in `exists`, both in the binder list
/// and in the atoms.
///
/// # Examples
///
/// ```
/// use sling_logic::{parse_formula, write_symheap};
///
/// let h = parse_formula("exists u. x -> Node{next: u} * sll(u)").unwrap();
/// let mut text = String::new();
/// write_symheap(&mut text, &h, Some("$c")).unwrap();
/// assert_eq!(text, "exists $c0. x -> Node{next: $c0} * sll($c0)");
/// ```
pub fn write_symheap<W: fmt::Write>(
    out: &mut W,
    h: &SymHeap,
    binder_prefix: Option<&str>,
) -> fmt::Result {
    let mut p = Printer {
        out,
        binders: binder_prefix.map(|prefix| (prefix, &h.exists[..])),
    };
    if !h.exists.is_empty() {
        p.out.write_str("exists ")?;
        p.list(&h.exists, ", ", |p, v| p.var(*v))?;
        p.out.write_str(". ")?;
    }
    if h.spatial.is_empty() {
        p.out.write_str("emp")?;
    } else {
        p.list(&h.spatial, " * ", Printer::spatial)?;
    }
    for a in &h.pure {
        p.out.write_str(" & ")?;
        p.pure(a)?;
    }
    Ok(())
}

/// The printer's state: the sink and the optional positional renaming of
/// binders (prefix, binder list).
struct Printer<'a, W> {
    out: &'a mut W,
    binders: Option<(&'a str, &'a [Symbol])>,
}

impl<'a, W: fmt::Write> Printer<'a, W> {
    fn plain(out: &'a mut W) -> Self {
        Printer { out, binders: None }
    }

    /// Writes `items` with `sep` between them.
    fn list<T>(
        &mut self,
        items: &[T],
        sep: &str,
        mut item: impl FnMut(&mut Self, &T) -> fmt::Result,
    ) -> fmt::Result {
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                self.out.write_str(sep)?;
            }
            item(self, x)?;
        }
        Ok(())
    }

    fn var(&mut self, v: Symbol) -> fmt::Result {
        if let Some((prefix, exists)) = self.binders {
            if let Some(i) = exists.iter().rposition(|b| *b == v) {
                self.out.write_str(prefix)?;
                if i < 10 {
                    // Most binder lists are short: one digit, written
                    // without the formatting machinery.
                    return self.out.write_char(char::from(b'0' + i as u8));
                }
                return write!(self.out, "{i}");
            }
        }
        self.out.write_str(v.as_str())
    }

    fn expr(&mut self, e: &Expr) -> fmt::Result {
        match e {
            Expr::Nil => self.out.write_str("nil"),
            Expr::Var(v) => self.var(*v),
            Expr::Int(k) => write!(self.out, "{k}"),
            Expr::Neg(e) => {
                self.out.write_str("-")?;
                self.paren(e)
            }
            Expr::Add(a, b) => self.binary(a, " + ", b),
            Expr::Sub(a, b) => self.binary(a, " - ", b),
            // Multiplication always self-parenthesizes so that `*` is never
            // ambiguous with the separating conjunction on re-parse.
            Expr::Mul(k, e) => {
                write!(self.out, "({k} * ")?;
                self.paren(e)?;
                self.out.write_str(")")
            }
        }
    }

    fn binary(&mut self, a: &Expr, op: &str, b: &Expr) -> fmt::Result {
        self.paren(a)?;
        self.out.write_str(op)?;
        self.paren(b)
    }

    /// Wraps compound sub-expressions in parentheses.
    fn paren(&mut self, e: &Expr) -> fmt::Result {
        match e {
            // Mul prints its own parentheses.
            Expr::Nil | Expr::Var(_) | Expr::Int(_) | Expr::Mul(..) => self.expr(e),
            _ => {
                self.out.write_str("(")?;
                self.expr(e)?;
                self.out.write_str(")")
            }
        }
    }

    fn pure(&mut self, p: &PureAtom) -> fmt::Result {
        let op = match p {
            PureAtom::Eq(..) => " == ",
            PureAtom::Neq(..) => " != ",
            PureAtom::Lt(..) => " < ",
            PureAtom::Le(..) => " <= ",
        };
        let (a, b) = p.operands();
        self.expr(a)?;
        self.out.write_str(op)?;
        self.expr(b)
    }

    fn spatial(&mut self, s: &SpatialAtom) -> fmt::Result {
        match s {
            SpatialAtom::PointsTo { root, ty, fields } => {
                self.expr(root)?;
                self.out.write_str(" -> ")?;
                self.out.write_str(ty.as_str())?;
                self.out.write_str("{")?;
                self.list(fields, ", ", |p, fa| {
                    p.out.write_str(fa.name.as_str())?;
                    p.out.write_str(": ")?;
                    p.expr(&fa.value)
                })?;
                self.out.write_str("}")
            }
            SpatialAtom::Pred { name, args } => {
                self.out.write_str(name.as_str())?;
                self.out.write_str("(")?;
                self.list(args, ", ", Printer::expr)?;
                self.out.write_str(")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::plain(f).expr(self)
    }
}

impl fmt::Display for PureAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::plain(f).pure(self)
    }
}

impl fmt::Display for SpatialAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer::plain(f).spatial(self)
    }
}

impl fmt::Display for SymHeap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_symheap(f, self, None)
    }
}

#[cfg(test)]
mod tests {
    use super::write_symheap;
    use crate::parser::parse_formula;
    use crate::symbol::Symbol;

    #[test]
    fn print_emp() {
        let h = parse_formula("emp").unwrap();
        assert_eq!(h.to_string(), "emp");
    }

    #[test]
    fn print_full() {
        let h = parse_formula(
            "exists u1, u2. x -> Node{next: u1, prev: nil} * dll(u1, x, u2, nil) & u2 == y",
        )
        .unwrap();
        assert_eq!(
            h.to_string(),
            "exists u1, u2. x -> Node{next: u1, prev: nil} * dll(u1, x, u2, nil) & u2 == y"
        );
    }

    #[test]
    fn print_arith() {
        let h = parse_formula("emp & x == (3 * y) + 1").unwrap();
        assert_eq!(h.to_string(), "emp & x == (3 * y) + 1");
    }

    #[test]
    fn binder_prefix_numbers_every_position() {
        let mut h = parse_formula("emp & x == y").unwrap();
        h.exists = (0..12).map(|i| Symbol::intern(&format!("b{i}"))).collect();
        h.exists.push(Symbol::intern("x"));
        let mut text = String::new();
        write_symheap(&mut text, &h, Some("$c")).unwrap();
        let binders: Vec<String> = (0..13).map(|i| format!("$c{i}")).collect();
        assert_eq!(
            text,
            format!("exists {}. emp & $c12 == y", binders.join(", "))
        );
        assert!(h.to_string().ends_with("b11, x. emp & x == y"));
    }

    #[test]
    fn roundtrip_simple() {
        for src in [
            "emp",
            "sll(x)",
            "x -> Node{next: nil}",
            "exists u. lseg(x, u) * u -> Node{next: nil} & x != nil",
            "emp & x == nil & y == z",
        ] {
            let h = parse_formula(src).unwrap();
            let h2 = parse_formula(&h.to_string()).unwrap();
            assert_eq!(h, h2, "round-trip failed for `{src}`");
        }
    }
}
