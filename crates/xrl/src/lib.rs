//! XORP Resource Locators — the IPC mechanism of §6.
//!
//! An XRL is "essentially a method supported by a component".  Components
//! register with the [`Finder`]; callers compose a *generic* XRL naming only
//! a component class:
//!
//! ```text
//! finder://bgp/bgp/1.0/set_local_as?as:u32=1777
//! ```
//!
//! and the Finder resolves it to a *resolved* XRL that pins down transport,
//! endpoint and an unguessable per-registration method key (§7):
//!
//! ```text
//! stcp://127.0.0.1:16878/bgp/1.0/set_local_as?as:u32=1777
//! ```
//!
//! Resolution results are cached and invalidated by the Finder when
//! registrations change.  Three protocol families move XRLs between
//! components — **TCP** (pipelined; the production default), **UDP**
//! (deliberately unpipelined, reproducing the paper's Figure 9 contrast)
//! and **intra-process** direct dispatch — plus the one-message **kill**
//! family that delivers a signal.
//!
//! The textual form is fully scriptable: [`script::call_xrl`] parses and
//! dispatches a string, the equivalent of the paper's `call_xrl` program
//! used "in all our scripts for automated testing".

pub mod atom;
pub mod error;
pub mod fault;
pub mod finder;
pub mod idl;
pub mod keepalive;
pub mod marshal;
pub mod profile;
pub mod router;
pub mod script;
pub mod transport;
pub mod wire;
pub mod xrl;

pub use atom::{AtomType, AtomValue, XrlArgs, XrlAtom};
pub use error::XrlError;
pub use fault::{FaultAction, FaultConfig, FaultEvent, FaultPlan};
pub use finder::{Finder, LifetimeEvent, ResolveEntry};
pub use idl::{sig_hash, RetTuple, TypedResponder};
pub use router::{
    CongestionSignal, InternedCall, QueuePolicy, Responder, ResponseCb, RetryPolicy, TransportPref,
    XrlRouter, SEQ_MAY_RECUR,
};
pub use wire::{AtomCodec, AtomReader, AtomRef, ListWriter, WireList};
pub use xrl::{Xrl, XrlPath};

/// Result of an XRL dispatch: the response atoms or a transport/dispatch
/// error.
pub type XrlResult = Result<XrlArgs, XrlError>;

/// Items the [`xrl_interface!`] macro expansion needs in scope, re-exported
/// under one path so generated code works regardless of what the caller
/// imported.  Not part of the public API.
#[doc(hidden)]
pub mod idl_support {
    pub use crate::error::XrlError;
    pub use crate::idl::{sig_hash, RetTuple, TypedResponder};
    pub use crate::router::{InternedCall, XrlRouter};
    pub use crate::wire::AtomCodec;
    pub use std::rc::Rc;
    pub use xorp_event::EventLoop;
}
