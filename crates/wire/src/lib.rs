//! # sdlo-wire
//!
//! Wire format for the sdlo tile-advisor service: a dependency-free JSON
//! value type, parser and writer ([`json`]), plus codecs between JSON and
//! the analysis types — [`Program`](sdlo_ir::Program),
//! [`Bindings`](sdlo_symbolic::Bindings), reuse components and tile-search
//! outcomes ([`codec`]).
//!
//! Design choices:
//!
//! * **Expressions are strings** in the `sdlo-symbolic` surface syntax
//!   (`"Nk*ceil(Ni/Ti)"`); `Display` → [`parse_expr`](sdlo_symbolic::parse_expr)
//!   round-tripping is property-tested in `sdlo-symbolic`.
//! * **Arrays travel by name**, statement ids are implicit program order:
//!   the textual form carries no redundant numbering to get out of sync.
//! * **Decoded programs are validated** before they are returned, so
//!   downstream analysis can assume well-formedness.
//!
//! The protocol's reply envelope is not defined here: `sdlo_service::api`
//! builds every reply, next to the error vocabulary and protocol version
//! it carries.

pub mod codec;
pub mod json;

pub use codec::{
    bindings_from_value, bindings_to_value, component_to_value, delta_from_value, delta_to_value,
    dep_summary_to_value, diagnostic_to_value, evaluation_to_value, outcome_to_value,
    program_from_value, program_from_value_unchecked, program_to_value,
    stored_component_from_value, stored_component_to_value, WireError,
};
pub use json::{parse, JsonError, Value};
