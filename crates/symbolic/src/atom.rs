//! Non-polynomial building blocks of symbolic expressions.

use crate::{Bindings, EvalError, Expr, Sym};

/// An indivisible factor of a [`Term`](crate::Term).
///
/// Polynomial structure (sums, products, integer powers) lives in
/// [`Expr`] and [`Term`](crate::Term); everything that does not distribute over `+`/`*` is an
/// opaque `Atom`. Atoms are ordered and hashable so terms can be kept in a
/// canonical order, which is what makes simplification work.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// A free symbolic variable (loop bound, tile size, cache size, …).
    Var(Sym),
    /// `ceil(num / den)` — trip count of a tile loop: `N/T` tiles when `T ∤ N`
    /// still executes `ceil(N/T)` times.
    CeilDiv(Box<Expr>, Box<Expr>),
    /// `floor(num / den)`.
    FloorDiv(Box<Expr>, Box<Expr>),
    /// Minimum of the operands (at least two, kept sorted).
    Min(Vec<Expr>),
    /// Maximum of the operands (at least two, kept sorted).
    Max(Vec<Expr>),
}

impl Atom {
    /// Evaluate the atom under `bindings`.
    pub fn eval(&self, bindings: &Bindings) -> Result<i128, EvalError> {
        match self {
            Atom::Var(s) => bindings.get(s).ok_or_else(|| EvalError::Unbound(s.clone())),
            Atom::CeilDiv(n, d) => {
                let n = n.eval_i128(bindings)?;
                let d = d.eval_i128(bindings)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                div_ceil(n, d).ok_or(EvalError::Overflow)
            }
            Atom::FloorDiv(n, d) => {
                let n = n.eval_i128(bindings)?;
                let d = d.eval_i128(bindings)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                div_floor(n, d).ok_or(EvalError::Overflow)
            }
            Atom::Min(es) => {
                let mut best = i128::MAX;
                for e in es {
                    best = best.min(e.eval_i128(bindings)?);
                }
                Ok(best)
            }
            Atom::Max(es) => {
                let mut best = i128::MIN;
                for e in es {
                    best = best.max(e.eval_i128(bindings)?);
                }
                Ok(best)
            }
        }
    }

    /// Collect every variable mentioned anywhere inside the atom.
    pub fn collect_vars(&self, out: &mut std::collections::BTreeSet<Sym>) {
        match self {
            Atom::Var(s) => {
                out.insert(s.clone());
            }
            Atom::CeilDiv(n, d) | Atom::FloorDiv(n, d) => {
                n.collect_vars(out);
                d.collect_vars(out);
            }
            Atom::Min(es) | Atom::Max(es) => {
                for e in es {
                    e.collect_vars(out);
                }
            }
        }
    }
}

/// Truncating quotient and remainder; `None` when `d == 0` or the quotient
/// overflows (`i128::MIN / -1`). Operands that fit in `i64` take the native
/// division instead of the `i128` library call.
fn div_rem(n: i128, d: i128) -> Option<(i128, i128)> {
    match (i64::try_from(n), i64::try_from(d)) {
        (Ok(n), Ok(d)) if d != 0 && d != -1 => Some(((n / d).into(), (n % d).into())),
        _ => Some((n.checked_div(d)?, n.checked_rem(d)?)),
    }
}

/// Ceiling division on `i128`, both signs handled; `None` when `d == 0` or
/// the quotient overflows.
pub fn div_ceil(n: i128, d: i128) -> Option<i128> {
    let (q, r) = div_rem(n, d)?;
    Some(if r != 0 && ((r > 0) == (d > 0)) {
        q + 1
    } else {
        q
    })
}

/// Floor division on `i128`, both signs handled; `None` when `d == 0` or
/// the quotient overflows.
pub fn div_floor(n: i128, d: i128) -> Option<i128> {
    let (q, r) = div_rem(n, d)?;
    Some(if r != 0 && ((r > 0) != (d > 0)) {
        q - 1
    } else {
        q
    })
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Atom::Var(s) => write!(f, "{s}"),
            Atom::CeilDiv(n, d) => write!(f, "ceil_div({n}, {d})"),
            Atom::FloorDiv(n, d) => write!(f, "floor_div({n}, {d})"),
            Atom::Min(es) => {
                write!(f, "min(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Atom::Max(es) => {
                write!(f, "max(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_floor_div_signs() {
        assert_eq!(div_ceil(7, 2), Some(4));
        assert_eq!(div_ceil(8, 2), Some(4));
        assert_eq!(div_ceil(-7, 2), Some(-3));
        assert_eq!(div_ceil(7, -2), Some(-3));
        assert_eq!(div_floor(7, 2), Some(3));
        assert_eq!(div_floor(-7, 2), Some(-4));
        assert_eq!(div_floor(7, -2), Some(-4));
        assert_eq!(div_floor(-8, -2), Some(4));
        // Past the i64 fast path: same rule on i128 operands.
        let big = 1i128 << 80;
        assert_eq!(div_ceil(big + 1, 2), Some((big >> 1) + 1));
        assert_eq!(div_floor(-big - 1, 2), Some(-(big >> 1) - 1));
        assert_eq!(div_ceil(i64::MIN.into(), -1), Some(1i128 << 63));
        assert_eq!(div_ceil(1, 0), None);
        assert_eq!(div_floor(i128::MIN, -1), None);
    }

    #[test]
    fn atom_eval_min_max() {
        let mut b = Bindings::new();
        b.set("x", 5);
        b.set("y", 9);
        let min = Atom::Min(vec![Expr::var("x"), Expr::var("y")]);
        let max = Atom::Max(vec![Expr::var("x"), Expr::var("y")]);
        assert_eq!(min.eval(&b).unwrap(), 5);
        assert_eq!(max.eval(&b).unwrap(), 9);
    }

    #[test]
    fn atom_eval_unbound_is_error() {
        let b = Bindings::new();
        let a = Atom::Var(Sym::new("zzz"));
        assert!(matches!(a.eval(&b), Err(EvalError::Unbound(_))));
    }

    #[test]
    fn atom_display() {
        let a = Atom::CeilDiv(Box::new(Expr::var("N")), Box::new(Expr::var("Ti")));
        assert_eq!(a.to_string(), "ceil_div(N, Ti)");
    }
}
