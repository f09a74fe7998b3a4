//! Network primitives for the `xorp-rs` routing stack.
//!
//! This crate supplies the vocabulary types every other crate in the
//! workspace builds on:
//!
//! * [`Addr`] — an abstraction over IPv4 and IPv6 addresses that lets
//!   routing-table code be written once and instantiated for both families
//!   (the paper achieves the same effect with C++ templates, §4).
//! * [`Prefix`] — a network prefix (address + mask length) with the subnet
//!   arithmetic the RIB's interest-registration machinery needs (§5.2.1).
//! * [`AsPath`], [`PathAttributes`] — BGP path attributes; [`AttrBlocks`]
//!   hands out one shared block per nexthop.
//! * [`RouteEntry`] — the route record that flows between routing stages.
//! * [`PatriciaTrie`] — a binary radix trie over prefixes with *safe
//!   iterators*: iterators that remain valid while background tasks pause
//!   and the trie is mutated underneath them (§5.3).
//! * [`NexthopIndex`] — per-nexthop answers with a route count, for the
//!   layers that annotate routes they do not store.
//! * [`HeapSize`] — byte accounting used to reproduce the paper's memory
//!   footprint claims (§5).
//! * [`FxHashMap`] / [`FxHashSet`] — hash collections for keys the program
//!   mints itself, where SipHash's collision defence buys nothing.

pub mod addr;
pub mod aspath;
pub mod attrs;
pub mod error;
pub mod fxhash;
pub mod heapsize;
pub mod nexthop;
pub mod patricia;
pub mod prefix;
pub mod route;

pub use addr::{Addr, Mac};
pub use aspath::{AsNum, AsPath, AsPathSegment};
pub use attrs::{AttrBlocks, Community, MedMetric, Origin, PathAttributes};
pub use error::NetError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use heapsize::{release_drained, HeapSize};
pub use nexthop::{NexthopEntry, NexthopIndex};
pub use patricia::{IterHandle, PatriciaTrie};
pub use prefix::{Ipv4Net, Ipv6Net, Prefix};
pub use route::{route_table_bytes, AdminDistance, ProtocolId, RouteEntry, SharesAttrs, StaleSet};
