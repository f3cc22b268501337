//! Canonical sum-of-products expression representation.

use crate::{Atom, Bindings, Sym};
use std::collections::BTreeSet;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Error produced when evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding.
    Unbound(Sym),
    /// A `ceil`/`floor` division had a zero denominator.
    DivisionByZero,
    /// The result did not fit in the requested integer width.
    Overflow,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Unbound(s) => write!(f, "unbound symbol `{s}`"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::Overflow => write!(f, "integer overflow"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A single product term: `coeff * atom₁^e₁ * atom₂^e₂ * …`.
///
/// Factors are kept sorted by atom and contain no duplicates, so the factor
/// list is a canonical monomial key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Term {
    /// Integer coefficient (never zero in a normalized [`Expr`]).
    pub coeff: i64,
    /// Sorted `(atom, exponent)` pairs; exponents are ≥ 1.
    pub factors: Vec<(Atom, u32)>,
}

impl Term {
    /// The constant term `c`.
    pub fn constant(c: i64) -> Self {
        Term {
            coeff: c,
            factors: Vec::new(),
        }
    }

    /// `1 * atom`.
    pub fn atom(a: Atom) -> Self {
        Term {
            coeff: 1,
            factors: vec![(a, 1)],
        }
    }

    fn mul(&self, other: &Term) -> Term {
        let coeff = self
            .coeff
            .checked_mul(other.coeff)
            .expect("term coefficient overflow");
        let mut factors = self.factors.clone();
        for (a, e) in &other.factors {
            match factors.binary_search_by(|(b, _)| b.cmp(a)) {
                Ok(i) => factors[i].1 += e,
                Err(i) => factors.insert(i, (a.clone(), *e)),
            }
        }
        Term { coeff, factors }
    }

    fn eval(&self, bindings: &Bindings) -> Result<i128, EvalError> {
        let mut acc: i128 = self.coeff as i128;
        for (a, e) in &self.factors {
            let v = a.eval(bindings)?;
            for _ in 0..*e {
                acc = acc.checked_mul(v).ok_or(EvalError::Overflow)?;
            }
        }
        Ok(acc)
    }

    /// Whether this term mentions no variables or atoms at all.
    pub fn is_constant(&self) -> bool {
        self.factors.is_empty()
    }
}

/// A symbolic integer expression in sum-of-products normal form.
///
/// Invariants: terms are sorted by monomial, monomials are unique, and no
/// term has a zero coefficient. The empty term list represents `0`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Expr {
    terms: Vec<Term>,
}

impl Expr {
    /// The zero expression.
    pub fn zero() -> Self {
        Expr::default()
    }

    /// The unit expression.
    pub fn one() -> Self {
        Expr::from(1)
    }

    /// A single free variable.
    pub fn var(name: impl Into<Sym>) -> Self {
        Expr::from_atom(Atom::Var(name.into()))
    }

    /// Wrap one atom as an expression.
    pub fn from_atom(a: Atom) -> Self {
        Expr {
            terms: vec![Term::atom(a)],
        }
    }

    /// Build directly from terms (normalizes).
    pub fn from_terms(terms: Vec<Term>) -> Self {
        let mut e = Expr { terms };
        e.normalize();
        e
    }

    /// The terms of the canonical form.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    fn normalize(&mut self) {
        self.terms.sort_by(|a, b| a.factors.cmp(&b.factors));
        let mut out: Vec<Term> = Vec::with_capacity(self.terms.len());
        for t in self.terms.drain(..) {
            if let Some(last) = out.last_mut() {
                if last.factors == t.factors {
                    last.coeff = last
                        .coeff
                        .checked_add(t.coeff)
                        .expect("coefficient overflow");
                    continue;
                }
            }
            out.push(t);
        }
        out.retain(|t| t.coeff != 0);
        self.terms = out;
    }

    /// `true` iff the expression is the literal `0`.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// If the expression is a plain integer constant, return it.
    pub fn as_const(&self) -> Option<i64> {
        match self.terms.as_slice() {
            [] => Some(0),
            [t] if t.is_constant() => Some(t.coeff),
            _ => None,
        }
    }

    /// Evaluate to `i128` under `bindings`.
    pub fn eval_i128(&self, bindings: &Bindings) -> Result<i128, EvalError> {
        let mut acc: i128 = 0;
        for t in &self.terms {
            acc = acc
                .checked_add(t.eval(bindings)?)
                .ok_or(EvalError::Overflow)?;
        }
        Ok(acc)
    }

    /// Evaluate to `i64` under `bindings` (errors on overflow).
    pub fn eval(&self, bindings: &Bindings) -> Result<i64, EvalError> {
        i64::try_from(self.eval_i128(bindings)?).map_err(|_| EvalError::Overflow)
    }

    /// Collect every variable mentioned in the expression.
    pub fn collect_vars(&self, out: &mut BTreeSet<Sym>) {
        for t in &self.terms {
            for (a, _) in &t.factors {
                a.collect_vars(out);
            }
        }
    }

    /// The set of variables mentioned in the expression.
    pub fn vars(&self) -> BTreeSet<Sym> {
        let mut s = BTreeSet::new();
        self.collect_vars(&mut s);
        s
    }

    /// Whether the expression mentions `sym` anywhere.
    pub fn involves(&self, sym: &Sym) -> bool {
        self.vars().contains(sym)
    }

    /// Ceiling division `ceil(self / rhs)`.
    ///
    /// Folds the constant/constant case, `x/1`, `0/x`, and the structurally
    /// exact case where every term of `self` is divisible by the (single-term)
    /// divisor; otherwise produces an opaque [`Atom::CeilDiv`].
    pub fn ceil_div(&self, rhs: &Expr) -> Expr {
        if let Some(q) = self.exact_div(rhs) {
            return q;
        }
        if let (Some(n), Some(d)) = (self.as_const(), rhs.as_const()) {
            if d != 0 {
                let q = crate::atom::div_ceil(n.into(), d.into());
                return Expr::from(
                    q.and_then(|q| i64::try_from(q).ok())
                        .expect("ceil_div overflow"),
                );
            }
        }
        Expr::from_atom(Atom::CeilDiv(Box::new(self.clone()), Box::new(rhs.clone())))
    }

    /// Floor division `floor(self / rhs)`; folds like [`ceil_div`](Self::ceil_div).
    pub fn floor_div(&self, rhs: &Expr) -> Expr {
        if let Some(q) = self.exact_div(rhs) {
            return q;
        }
        if let (Some(n), Some(d)) = (self.as_const(), rhs.as_const()) {
            if d != 0 {
                let q = crate::atom::div_floor(n.into(), d.into());
                return Expr::from(
                    q.and_then(|q| i64::try_from(q).ok())
                        .expect("floor_div overflow"),
                );
            }
        }
        Expr::from_atom(Atom::FloorDiv(
            Box::new(self.clone()),
            Box::new(rhs.clone()),
        ))
    }

    /// Structural exact division: `Some(q)` iff `self == q * rhs` can be read
    /// off term-by-term (single-term divisor only).
    fn exact_div(&self, rhs: &Expr) -> Option<Expr> {
        if rhs.as_const() == Some(1) {
            return Some(self.clone());
        }
        if self.is_zero() {
            if rhs.as_const() == Some(0) {
                return None;
            }
            return Some(Expr::zero());
        }
        let [d] = rhs.terms.as_slice() else {
            return None;
        };
        if d.coeff == 0 {
            return None;
        }
        let mut out = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            if t.coeff % d.coeff != 0 {
                return None;
            }
            let mut factors = t.factors.clone();
            for (a, e) in &d.factors {
                match factors.binary_search_by(|(b, _)| b.cmp(a)) {
                    Ok(i) if factors[i].1 >= *e => {
                        factors[i].1 -= e;
                        if factors[i].1 == 0 {
                            factors.remove(i);
                        }
                    }
                    _ => return None,
                }
            }
            out.push(Term {
                coeff: t.coeff / d.coeff,
                factors,
            });
        }
        Some(Expr::from_terms(out))
    }

    /// `min` of two expressions with constant folding and `a min a = a`.
    ///
    /// Takes `self` by value so the inherent method wins over [`Ord::min`]
    /// during method resolution.
    pub fn min(self, rhs: &Expr) -> Expr {
        if &self == rhs {
            return self;
        }
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return Expr::from(a.min(b));
        }
        let mut ops = vec![self, rhs.clone()];
        ops.sort();
        Expr::from_atom(Atom::Min(ops))
    }

    /// `max` of two expressions with constant folding and `a max a = a`.
    ///
    /// Takes `self` by value so the inherent method wins over [`Ord::max`]
    /// during method resolution.
    pub fn max(self, rhs: &Expr) -> Expr {
        if &self == rhs {
            return self;
        }
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return Expr::from(a.max(b));
        }
        let mut ops = vec![self, rhs.clone()];
        ops.sort();
        Expr::from_atom(Atom::Max(ops))
    }

    /// Integer power.
    pub fn pow(&self, e: u32) -> Expr {
        let mut acc = Expr::one();
        for _ in 0..e {
            acc *= self.clone();
        }
        acc
    }

    /// Replace every occurrence of variable `sym` with `with` (recursing into
    /// atoms), then renormalize.
    pub fn substitute(&self, sym: &Sym, with: &Expr) -> Expr {
        let mut acc = Expr::zero();
        for t in &self.terms {
            let mut prod = Expr::from(t.coeff);
            for (a, e) in &t.factors {
                let sub: Expr = match a {
                    Atom::Var(s) if s == sym => with.clone(),
                    Atom::Var(_) => Expr::from_atom(a.clone()),
                    Atom::CeilDiv(n, d) => {
                        n.substitute(sym, with).ceil_div(&d.substitute(sym, with))
                    }
                    Atom::FloorDiv(n, d) => {
                        n.substitute(sym, with).floor_div(&d.substitute(sym, with))
                    }
                    Atom::Min(es) => {
                        let es: Vec<Expr> = es.iter().map(|x| x.substitute(sym, with)).collect();
                        es.into_iter()
                            .reduce(|a, b| a.min(&b))
                            .expect("min atom has operands")
                    }
                    Atom::Max(es) => {
                        let es: Vec<Expr> = es.iter().map(|x| x.substitute(sym, with)).collect();
                        es.into_iter()
                            .reduce(|a, b| a.max(&b))
                            .expect("max atom has operands")
                    }
                };
                prod *= sub.pow(*e);
            }
            acc += prod;
        }
        acc
    }
}

impl From<i64> for Expr {
    fn from(c: i64) -> Self {
        if c == 0 {
            Expr::zero()
        } else {
            Expr {
                terms: vec![Term::constant(c)],
            }
        }
    }
}

impl From<&str> for Expr {
    fn from(name: &str) -> Self {
        Expr::var(name)
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(mut self, rhs: Expr) -> Expr {
        self.terms.extend(rhs.terms);
        self.normalize();
        self
    }
}

impl AddAssign for Expr {
    fn add_assign(&mut self, rhs: Expr) {
        self.terms.extend(rhs.terms);
        self.normalize();
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        self + (-rhs)
    }
}

impl SubAssign for Expr {
    fn sub_assign(&mut self, rhs: Expr) {
        *self += -rhs;
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(mut self) -> Expr {
        for t in &mut self.terms {
            t.coeff = -t.coeff;
        }
        self
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        let mut terms = Vec::with_capacity(self.terms.len() * rhs.terms.len());
        for a in &self.terms {
            for b in &rhs.terms {
                terms.push(a.mul(b));
            }
        }
        Expr::from_terms(terms)
    }
}

impl MulAssign for Expr {
    fn mul_assign(&mut self, rhs: Expr) {
        *self = self.clone() * rhs;
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            let mag = t.coeff.unsigned_abs();
            if i == 0 {
                if t.coeff < 0 {
                    f.write_str("-")?;
                }
            } else if t.coeff < 0 {
                f.write_str(" - ")?;
            } else {
                f.write_str(" + ")?;
            }
            let mut wrote = false;
            if mag != 1 || t.factors.is_empty() {
                write!(f, "{mag}")?;
                wrote = true;
            }
            for (a, e) in &t.factors {
                if wrote {
                    f.write_str("*")?;
                }
                if *e == 1 {
                    write!(f, "{a}")?;
                } else {
                    write!(f, "{a}^{e}")?;
                }
                wrote = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    #[test]
    fn normal_form_merges_and_drops_zero() {
        let e = v("x") + v("x") - Expr::from(2) * v("x");
        assert!(e.is_zero());
        let e = v("x") * v("y") + v("y") * v("x");
        assert_eq!(e.to_string(), "2*x*y");
    }

    #[test]
    fn constant_arithmetic() {
        let e = (Expr::from(3) + Expr::from(4)) * Expr::from(2) - Expr::from(5);
        assert_eq!(e.as_const(), Some(9));
    }

    #[test]
    fn display_is_readable() {
        let e = v("Ti") * v("Tj") + Expr::from(2) * v("Tk") - Expr::from(7);
        assert_eq!(e.to_string(), "-7 + Ti*Tj + 2*Tk");
        assert_eq!(Expr::zero().to_string(), "0");
        assert_eq!((v("x").pow(3)).to_string(), "x^3");
    }

    #[test]
    fn eval_polynomial() {
        let e = v("N").pow(2) * Expr::from(3) + v("N") + Expr::from(1);
        let b = Bindings::new().with("N", 10);
        assert_eq!(e.eval(&b).unwrap(), 311);
    }

    #[test]
    fn eval_unbound_errors() {
        let e = v("q");
        assert!(matches!(
            e.eval(&Bindings::new()),
            Err(EvalError::Unbound(_))
        ));
    }

    #[test]
    fn exact_division_folds() {
        let e = v("N") * v("Ti") + Expr::from(2) * v("Ti");
        let q = e.ceil_div(&v("Ti"));
        assert_eq!(q.to_string(), "2 + N");
        // Non-exact stays symbolic.
        let q2 = (v("N") + Expr::from(1)).ceil_div(&v("Ti"));
        assert_eq!(q2.to_string(), "ceil_div(1 + N, Ti)");
    }

    #[test]
    fn ceil_div_eval_matches_math() {
        let q = v("N").ceil_div(&v("T"));
        let b = Bindings::new().with("N", 100).with("T", 30);
        assert_eq!(q.eval(&b).unwrap(), 4);
        let f = v("N").floor_div(&v("T"));
        assert_eq!(f.eval(&b).unwrap(), 3);
    }

    #[test]
    fn min_max_folding() {
        assert_eq!(Expr::from(3).min(&Expr::from(7)).as_const(), Some(3));
        assert_eq!(Expr::from(3).max(&Expr::from(7)).as_const(), Some(7));
        assert_eq!(v("x").min(&v("x")), v("x"));
        let m = v("x").min(&v("y"));
        let b = Bindings::new().with("x", 4).with("y", 2);
        assert_eq!(m.eval(&b).unwrap(), 2);
    }

    #[test]
    fn substitution() {
        let e = v("N") * v("N") + v("T");
        let s = e.substitute(&Sym::new("N"), &(v("T") + Expr::from(1)));
        let b = Bindings::new().with("T", 3);
        assert_eq!(s.eval(&b).unwrap(), 16 + 3);
    }

    #[test]
    fn substitution_inside_atoms() {
        let e = v("N").ceil_div(&v("T"));
        let s = e.substitute(&Sym::new("N"), &Expr::from(100));
        let b = Bindings::new().with("T", 30);
        assert_eq!(s.eval(&b).unwrap(), 4);
    }

    #[test]
    fn vars_and_involves() {
        let e = v("N").ceil_div(&v("T")) * v("M") + Expr::from(5);
        let vs = e.vars();
        assert!(vs.contains(&Sym::new("N")));
        assert!(vs.contains(&Sym::new("T")));
        assert!(vs.contains(&Sym::new("M")));
        assert!(e.involves(&Sym::new("T")));
        assert!(!e.involves(&Sym::new("Q")));
    }

    #[test]
    fn zero_division_by_nonzero_expr_is_zero() {
        let z = Expr::zero().ceil_div(&v("T"));
        assert!(z.is_zero());
    }
}
