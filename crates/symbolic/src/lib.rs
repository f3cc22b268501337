//! # sdlo-symbolic
//!
//! A small symbolic **integer** expression engine used throughout `sdlo` to
//! manipulate loop bounds, tile sizes and stack-distance expressions at
//! "compile time" (i.e. before concrete problem sizes are known).
//!
//! The paper this workspace reproduces (Sahoo et al., IPPS 2005) derives
//! *symbolic* stack distances such as `Ti*Tn + Tj*Tn + a*Tn` where `Ti`, `Tj`,
//! `Tn` are tile sizes and `a` a free index variable. Those expressions must
//! be built, simplified, compared and finally evaluated once bounds become
//! known. This crate provides exactly that:
//!
//! * [`Expr`] — an integer expression kept in a canonical *sum-of-products*
//!   normal form, so `+`, `-`, `*` simplify automatically,
//! * opaque [`Atom`]s for the non-polynomial operations the paper needs
//!   (ceiling division for trip counts of tile loops, `min`/`max`),
//! * exact evaluation under a set of [`Bindings`] (`i128` internally, so
//!   `N^6`-sized instance counts never overflow),
//! * structural queries (`vars`, `involves`) used by the tile-size search to
//!   select the "expressions that do not involve loop bounds" (paper §6).
//!
//! ```
//! use sdlo_symbolic::{Expr, Bindings};
//! let ti = Expr::var("Ti");
//! let tj = Expr::var("Tj");
//! let sd = ti.clone() * tj.clone() + Expr::from(2) * tj - Expr::var("Ti") * Expr::var("Tj");
//! assert_eq!(sd.to_string(), "2*Tj");
//! let mut b = Bindings::new();
//! b.set("Tj", 16);
//! assert_eq!(sd.eval(&b).unwrap(), 32);
//! ```

mod atom;
mod bindings;
mod expr;
mod parse;

pub use atom::{div_ceil, div_floor, Atom};
pub use bindings::Bindings;
pub use expr::{EvalError, Expr, Term};
pub use parse::{parse_expr, ParseError};

/// An interned-ish symbol name. Cloning is cheap (`Arc<str>`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(std::sync::Arc<str>);

impl Sym {
    /// Create a symbol from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Sym(std::sync::Arc::from(name.as_ref()))
    }

    /// The symbol's textual name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::new(s)
    }
}
