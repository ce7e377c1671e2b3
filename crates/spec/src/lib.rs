//! API specification model for the APIphany reproduction.
//!
//! This crate implements the *syntactic* side of the paper's formal model
//! (PLDI 2022, Fig. 6): locations, syntactic types, the library `Λ` (object
//! and method definitions), an OpenAPI-subset loader, witnesses, and the
//! [`Service`] trait implemented by the simulated services.
//!
//! It also defines *semantic* types (`t̂` in the paper): loc-set types are
//! represented as interned [`GroupId`]s whose loc-sets and value banks live
//! in the mining crate's `SemLib`.
//!
//! # Example
//!
//! ```
//! use apiphany_spec::{LibraryBuilder, SynTy};
//!
//! let lib = LibraryBuilder::new("mini-slack")
//!     .object("Channel", |o| {
//!         o.field("id", SynTy::Str).field("name", SynTy::Str)
//!     })
//!     .method("c_list", |m| m.returns(SynTy::array(SynTy::object("Channel"))))
//!     .build();
//! assert_eq!(lib.methods.len(), 1);
//! ```

mod cancel;
pub mod codec;
pub mod fixtures;
mod library;
mod loc;
mod openapi;
mod service;
mod ty;
mod witness;

pub use cancel::CancelToken;
pub use codec::DecodeError;
pub use library::{Library, LibraryBuilder, LibraryStats, MethodBuilder, MethodSig, ObjectBuilder};
pub use loc::{Label, Loc, ParseLocError, Root};
pub use openapi::{library_from_openapi, library_to_openapi, OpenApiError};
pub use service::{CallError, Service};
pub use ty::{FieldTy, GroupId, RecordTy, SemFieldTy, SemRecordTy, SemTy, SynTy};
pub use witness::{
    witnesses_from_json, witnesses_from_reader, witnesses_to_json, Witness, WitnessDecodeError,
};
