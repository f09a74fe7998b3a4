//! A lightweight interface-definition layer.
//!
//! "As with many other IPC mechanisms, we have an interface definition
//! language (IDL) that supports interface specification, automatic stub
//! code generation, and basic error checking." (§6.1)
//!
//! Rather than an external compiler, interfaces are declared in code with
//! the [`crate::xrl_interface!`] macro, which goes all the way to XORP's
//! generated stubs: one signature block expands into a typed client
//! ([`Client`](crate::xrl_interface!)-style struct with native-typed
//! methods and async reply adapters), a server trait, and a dispatch
//! wrapper that decodes arguments — rejecting missing or mistyped ones —
//! before the implementation runs, which is the error-checking role
//! XORP's IDL plays.  The same declaration supplies the signature hash
//! ([`sig_hash`]) that negotiates the positional wire-v2 encoding (see
//! [`crate::marshal`]) and the interned call sites that keep the
//! per-route path off the string allocator.
//!
//! Arguments and return values cross as one [`RetTuple`]: the stub
//! writes its arguments straight into an argument block, sized once,
//! and the dispatch wrapper reads them back in declaration order with one
//! cursor over the block — no argument is built into, or decoded out of,
//! an atom tree on the way.

use std::marker::PhantomData;

use crate::atom::{AtomType, XrlArgs};
use crate::error::XrlError;
use crate::router::Responder;
use crate::wire::AtomCodec;
use xorp_event::EventLoop;

/// Deterministic FNV-1a hash of a method signature: name, then each
/// argument's `(name, type tag)`, then each return's.  Both sides of a
/// connection compute it from their own interface declaration; equality
/// is what licenses the positional wire-v2 encoding — any drift in names,
/// types, order, or arity changes the hash and falls the pair back to
/// named v1 frames.
pub fn sig_hash(method: &str, args: &[(&str, AtomType)], rets: &[(&str, AtomType)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        // Separator so ("ab","c") never collides with ("a","bc").
        h ^= 0xff;
        h.wrapping_mul(PRIME)
    }
    let mut h = eat(OFFSET, method.as_bytes());
    for (name, ty) in args {
        h = eat(h, name.as_bytes());
        h = eat(h, ty.tag().as_bytes());
    }
    h = eat(h, b"->");
    for (name, ty) in rets {
        h = eat(h, name.as_bytes());
        h = eat(h, ty.tag().as_bytes());
    }
    h
}

/// A tuple of native values — a method's return values, or its
/// arguments — written to and read from an [`XrlArgs`] block.
/// Implemented for tuples of [`AtomCodec`] types up to arity 5; the `(T,)`
/// trailing-comma form is a real tuple even at arity 1, and `()` covers
/// methods that take or return nothing.
pub trait RetTuple: Sized + 'static {
    /// Write the values into one block, allocated once at its exact size:
    /// positionally (a request) or named by `names`, empty past its end
    /// (a reply; a wire-v2 reply names nothing).
    fn into_args(self, names: &'static [&'static str], positional: bool) -> XrlArgs;
    /// Read the values in order with one cursor over `args`, falling back
    /// to `names` for a named block's out-of-order atoms.
    fn from_args(args: &XrlArgs, names: &'static [&'static str]) -> Result<Self, XrlError>;
}

macro_rules! ret_tuple {
    ($($t:ident : $idx:tt),*) => {
        impl<$($t: AtomCodec + 'static),*> RetTuple for ($($t,)*) {
            fn into_args(self, names: &'static [&'static str], positional: bool) -> XrlArgs {
                #[allow(unused_variables)]
                let name = |i: usize| (!positional).then(|| names.get(i).copied().unwrap_or(""));
                let bytes = 0 $(+ self.$idx.wire_len() + name($idx).map_or(0, |n| 2 + n.len()))*;
                #[allow(unused_mut)]
                let mut args = XrlArgs::with_capacity(!positional, bytes);
                $( args.put(name($idx).unwrap_or(""), |w| self.$idx.write(w)); )*
                args
            }
            fn from_args(args: &XrlArgs, names: &'static [&'static str]) -> Result<Self, XrlError> {
                #[allow(unused_mut, unused_variables)]
                let mut r = args.reader();
                let _ = names;
                Ok(($(r.arg::<$t>(names[$idx])?,)*))
            }
        }
    };
}

ret_tuple!();
ret_tuple!(A: 0);
ret_tuple!(A: 0, B: 1);
ret_tuple!(A: 0, B: 1, C: 2);
ret_tuple!(A: 0, B: 1, C: 2, D: 3);
ret_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// A [`Responder`] specialized to one method's return signature.
/// Generated server traits hand implementations one of these: it can be
/// answered inline or stashed and answered later (delayed replies), and
/// it encodes the reply positionally exactly when the request negotiated
/// wire v2 — a v1 caller always gets named atoms back.
pub struct TypedResponder<R: RetTuple> {
    responder: Responder,
    ret_names: &'static [&'static str],
    _marker: PhantomData<R>,
}

impl<R: RetTuple> TypedResponder<R> {
    /// Wrap a raw responder (generated dispatch wrappers call this).
    pub fn new(responder: Responder, ret_names: &'static [&'static str]) -> TypedResponder<R> {
        TypedResponder {
            responder,
            ret_names,
            _marker: PhantomData,
        }
    }

    /// Reply with the method's return values.
    pub fn ok(self, el: &mut EventLoop, vals: R) {
        let names = if self.responder.wire_v2() {
            &[]
        } else {
            self.ret_names
        };
        self.responder.reply(el, Ok(vals.into_args(names, false)));
    }

    /// Reply with an error.
    pub fn fail(self, el: &mut EventLoop, err: XrlError) {
        self.responder.reply(el, Err(err));
    }

    /// Reply with either.
    pub fn reply(self, el: &mut EventLoop, result: Result<R, XrlError>) {
        match result {
            Ok(vals) => self.ok(el, vals),
            Err(e) => self.fail(el, e),
        }
    }

    /// Whether the request arrived on the positional wire-v2 encoding
    /// (diagnostics; the reply encoding follows this automatically).
    pub fn wire_v2(&self) -> bool {
        self.responder.wire_v2()
    }
}

/// Expand an interface declaration into typed stubs, per §6.1's "automatic
/// stub code generation":
///
/// ```ignore
/// xrl_interface! {
///     pub interface rib("rib", "1.0") {
///         fn add_route(net: Ipv4Net, nexthop: Ipv4Addr, metric: u32);
///         fn route_count() -> (count: u32);
///     }
/// }
/// ```
///
/// generates `pub mod rib` containing:
///
/// * `Client` — one typed method per declaration.  Arguments are native
///   types; the final parameter is an async reply adapter receiving
///   `Result<(rets,), XrlError>`.  Every method call site is interned
///   ([`crate::XrlRouter::intern`]), so the per-call hot path does no
///   string hashing, and sends positional wire-v2 frames to peers that
///   advertised a matching signature hash.  `client.priority()` is the
///   same stub on the priority lane.
/// * `Server` — a trait with one method per declaration, receiving decoded
///   native arguments and a [`TypedResponder`] (stashable for delayed
///   replies).
/// * `register(router, instance, impl Server)` — attaches a generated
///   dispatch wrapper per method via signed registration
///   ([`crate::XrlRouter::add_handler_signed`]), which advertises the
///   signature to the Finder and decodes arguments (rejecting mistyped or
///   missing ones with the method path in the error) before the trait
///   method runs.  Arguments are read in place, in declaration order, by
///   one cursor over the request's block.
///
/// A stub that compiles cannot misname, mistype, or omit an argument: the
/// declaration is the single source of truth for the client, the server,
/// the dispatch table, and the wire encoding.
#[macro_export]
macro_rules! xrl_interface {
    (
        $(#[$meta:meta])*
        pub interface $modname:ident ($iface:literal, $ver:literal) {
            $(
                fn $mname:ident ( $($aname:ident : $aty:ty),* $(,)? )
                    $( -> ( $($rname:ident : $rty:ty),* $(,)? ) )? ;
            )*
        }
    ) => {
        $(#[$meta])*
        pub mod $modname {
            #[allow(unused_imports)]
            use super::*;
            use $crate::idl_support as __sup;

            $(
                #[allow(non_upper_case_globals)]
                const $mname: (&str, &[&str], &[&str]) = (
                    concat!($iface, "/", $ver, "/", stringify!($mname)),
                    &[$(stringify!($aname)),*],
                    &[$($(stringify!($rname)),*)?],
                );
            )*

            /// The signature hash of a declared method, straight from the
            /// declaration's `(name, type)` lists.
            fn sig_of(method: &str) -> u64 {
                match method {
                    $(
                        stringify!($mname) => __sup::sig_hash(
                            method,
                            &[$((stringify!($aname), <$aty as __sup::AtomCodec>::TYPE)),*],
                            &[$($((stringify!($rname), <$rty as __sup::AtomCodec>::TYPE)),*)?],
                        ),
                    )*
                    _ => unreachable!("{method} is not declared"),
                }
            }

            /// Typed client stub.  Cheap to clone; all clones share the
            /// interned call sites.
            #[derive(Clone)]
            pub struct Client {
                router: __sup::XrlRouter,
                priority: bool,
                $( $mname: __sup::InternedCall, )*
            }

            impl Client {
                /// Intern every method of this interface on `target`
                /// (a class or instance name) and return the stub.
                pub fn new(router: &__sup::XrlRouter, target: &str) -> Client {
                    Client {
                        router: router.clone(),
                        priority: false,
                        $(
                            $mname: router.intern(
                                target,
                                $mname.0,
                                sig_of(stringify!($mname)),
                                $mname.1,
                            ),
                        )*
                    }
                }

                /// The same stub sending on the priority lane (control
                /// traffic that must pass congested data lanes).
                #[allow(dead_code)]
                pub fn priority(&self) -> Client {
                    let mut c = self.clone();
                    c.priority = true;
                    c
                }

                $(
                    /// Generated typed call: writes the arguments
                    /// positionally into one block, sends it through the
                    /// interned call site, and decodes the reply into
                    /// native types.
                    #[allow(clippy::too_many_arguments)]
                    pub fn $mname(
                        &self,
                        el: &mut __sup::EventLoop,
                        $($aname: $aty,)*
                        cb: impl FnOnce(
                            &mut __sup::EventLoop,
                            Result<($($($rty,)*)?), __sup::XrlError>,
                        ) + 'static,
                    ) {
                        self.router.send_interned(
                            el,
                            &self.$mname,
                            __sup::RetTuple::into_args(($($aname,)*), $mname.1, true),
                            self.priority,
                            Box::new(move |el, result| {
                                cb(el, result.and_then(|args| {
                                    __sup::RetTuple::from_args(&args, $mname.2)
                                }));
                            }),
                        );
                    }
                )*
            }

            /// Generated server trait: one method per declaration, with
            /// decoded native arguments and a stashable typed responder.
            pub trait Server: 'static {
                $(
                    #[allow(clippy::too_many_arguments)]
                    fn $mname(
                        &self,
                        el: &mut __sup::EventLoop,
                        $($aname: $aty,)*
                        responder: __sup::TypedResponder<($($($rty,)*)?)>,
                    );
                )*
            }

            /// Register `server` on a target instance: every method gets a
            /// generated dispatch wrapper attached through signed
            /// registration, advertising the signature for wire-v2
            /// negotiation.  Returns the shared server handle.
            pub fn register<S: Server>(
                router: &__sup::XrlRouter,
                instance: &str,
                server: S,
            ) -> __sup::Rc<S> {
                let server = __sup::Rc::new(server);
                register_rc(router, instance, &server);
                server
            }

            /// Like [`register`], for a server handle that is already
            /// shared.
            pub fn register_rc<S: Server>(
                router: &__sup::XrlRouter,
                instance: &str,
                server: &__sup::Rc<S>,
            ) {
                $(
                    {
                        let s = __sup::Rc::clone(server);
                        router.add_handler_signed(
                            instance,
                            $mname.0,
                            sig_of(stringify!($mname)),
                            move |el, args, responder| {
                                let responder = __sup::TypedResponder::new(responder, $mname.2);
                                match <($($aty,)*) as __sup::RetTuple>::from_args(args, $mname.1) {
                                    Ok(($($aname,)*)) => s.$mname(el, $($aname,)* responder),
                                    Err(e) => responder.fail(el, e),
                                }
                            },
                        );
                    }
                )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_hash_is_order_and_type_sensitive() {
        let base = sig_hash(
            "add_peer",
            &[("addr", AtomType::Ipv4), ("as", AtomType::U32)],
            &[("ok", AtomType::Bool)],
        );
        // Different order, type, name, arity or return each change the hash.
        assert_ne!(
            base,
            sig_hash(
                "add_peer",
                &[("as", AtomType::U32), ("addr", AtomType::Ipv4)],
                &[("ok", AtomType::Bool)],
            )
        );
        assert_ne!(
            base,
            sig_hash(
                "add_peer",
                &[("addr", AtomType::Ipv4), ("as", AtomType::U64)],
                &[("ok", AtomType::Bool)],
            )
        );
        assert_ne!(
            base,
            sig_hash(
                "add_peer",
                &[("addr", AtomType::Ipv4), ("as", AtomType::U32)],
                &[],
            )
        );
        // Moving an atom across the arg/ret boundary changes the hash too.
        assert_ne!(
            sig_hash("m", &[("a", AtomType::U32)], &[]),
            sig_hash("m", &[], &[("a", AtomType::U32)])
        );
        // Deterministic across calls (this is what both sides compare).
        assert_eq!(
            base,
            sig_hash(
                "add_peer",
                &[("addr", AtomType::Ipv4), ("as", AtomType::U32)],
                &[("ok", AtomType::Bool)],
            )
        );
    }
}

#[cfg(test)]
mod stub_tests {
    use crate::finder::Finder;
    use crate::router::XrlRouter;
    use crate::xrl::Xrl;
    use crate::{sig_hash, AtomType, XrlArgs, XrlError};
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;
    use xorp_event::EventLoop;

    xrl_interface! {
        /// A small interface exercising zero-arg, multi-arg, zero-ret and
        /// multi-ret shapes.
        pub interface test_math("test_math", "1.0") {
            fn ping();
            fn add(a: u32, b: u32) -> (sum: u32);
            fn describe(addr: Ipv4Addr, label: String) -> (text: String, len: u32);
        }
    }

    struct MathServer {
        // (call, request-was-wire-v2) log, for negotiation assertions.
        calls: CallLog,
    }

    impl test_math::Server for MathServer {
        fn ping(&self, el: &mut EventLoop, responder: crate::TypedResponder<()>) {
            self.calls.borrow_mut().push(("ping", responder.wire_v2()));
            responder.ok(el, ());
        }

        fn add(
            &self,
            el: &mut EventLoop,
            a: u32,
            b: u32,
            responder: crate::TypedResponder<(u32,)>,
        ) {
            self.calls.borrow_mut().push(("add", responder.wire_v2()));
            responder.ok(el, (a + b,));
        }

        fn describe(
            &self,
            el: &mut EventLoop,
            addr: Ipv4Addr,
            label: String,
            responder: crate::TypedResponder<(String, u32)>,
        ) {
            self.calls
                .borrow_mut()
                .push(("describe", responder.wire_v2()));
            let text = format!("{label}@{addr}");
            let len = text.len() as u32;
            responder.ok(el, (text, len));
        }
    }

    type CallLog = Rc<RefCell<Vec<(&'static str, bool)>>>;

    fn setup(el: &mut EventLoop) -> (XrlRouter, CallLog) {
        let router = XrlRouter::new(el, Finder::new());
        router.register_target("math", "math-0", true).unwrap();
        let calls = Rc::new(RefCell::new(Vec::new()));
        test_math::register(
            &router,
            "math-0",
            MathServer {
                calls: calls.clone(),
            },
        );
        (router, calls)
    }

    #[test]
    fn interface_declaration_matches_macro_input() {
        // The server advertises, under each method's `iface/version/name`
        // path, the hash of exactly the names and types declared.
        let mut el = EventLoop::new_virtual();
        let (router, _) = setup(&mut el);
        let advertised = |path: &str| {
            let entry = router.finder().resolve("anonymous", "math", path).unwrap();
            entry.sig_hash
        };
        let add = &[("a", AtomType::U32), ("b", AtomType::U32)];
        assert_eq!(
            advertised("test_math/1.0/add"),
            Some(sig_hash("add", add, &[("sum", AtomType::U32)]))
        );
        assert_eq!(
            advertised("test_math/1.0/ping"),
            Some(sig_hash("ping", &[], &[]))
        );
    }

    #[test]
    fn typed_roundtrip_negotiates_wire_v2() {
        let mut el = EventLoop::new_virtual();
        let (router, calls) = setup(&mut el);
        let client = test_math::Client::new(&router, "math");

        let got: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        client.ping(&mut el, move |_el, r| {
            g.borrow_mut().push(format!("ping={:?}", r.is_ok()));
        });
        let g = got.clone();
        client.add(&mut el, 2, 40, move |_el, r| {
            g.borrow_mut().push(format!("add={:?}", r.map(|(s,)| s)));
        });
        let g = got.clone();
        client.describe(
            &mut el,
            Ipv4Addr::new(10, 0, 0, 1),
            "lo".to_string(),
            move |_el, r| {
                g.borrow_mut().push(format!("describe={r:?}"));
            },
        );
        el.run_until_idle();

        let got = got.borrow().clone();
        assert!(got.contains(&"ping=true".to_string()), "{got:?}");
        assert!(got.contains(&"add=Ok(42)".to_string()), "{got:?}");
        assert!(
            got.contains(&"describe=Ok((\"lo@10.0.0.1\", 11))".to_string()),
            "{got:?}"
        );
        // Signed registration + matching local signature ⇒ every request
        // arrived positionally.
        let calls = calls.borrow().clone();
        assert_eq!(calls.len(), 3);
        assert!(calls.iter().all(|(_, v2)| *v2), "{calls:?}");
    }

    #[test]
    fn v1_only_router_falls_back_to_named_frames() {
        let mut el = EventLoop::new_virtual();
        let router = XrlRouter::new(&mut el, Finder::new());
        router.set_wire_v1_only(true);
        router.register_target("math", "math-0", true).unwrap();
        let calls = Rc::new(RefCell::new(Vec::new()));
        test_math::register(
            &router,
            "math-0",
            MathServer {
                calls: calls.clone(),
            },
        );
        let client = test_math::Client::new(&router, "math");

        let sum = Rc::new(RefCell::new(None));
        let s = sum.clone();
        client.add(&mut el, 5, 6, move |_el, r| {
            *s.borrow_mut() = Some(r.map(|(v,)| v));
        });
        el.run_until_idle();

        // The call still works, just over named v1 frames.
        assert_eq!(*sum.borrow(), Some(Ok(11)));
        assert_eq!(calls.borrow().as_slice(), &[("add", false)]);
    }

    #[test]
    fn generic_v1_caller_reaches_generated_server() {
        // A peer with no stubs at all (hand-built named args, as any
        // pre-v2 component would send) must hit the same server trait.
        let mut el = EventLoop::new_virtual();
        let (router, calls) = setup(&mut el);

        let sum = Rc::new(RefCell::new(None));
        let s = sum.clone();
        let xrl = Xrl::generic(
            "math",
            "test_math",
            "1.0",
            "add",
            XrlArgs::new().add_u32("b", 8).add_u32("a", 1),
        );
        router.send(
            &mut el,
            xrl,
            Box::new(move |_el, r| {
                *s.borrow_mut() = Some(r.and_then(|args| args.get_u32("sum")));
            }),
        );
        el.run_until_idle();

        // Out-of-order named args decode correctly (by-name fallback).
        assert_eq!(*sum.borrow(), Some(Ok(9)));
        assert_eq!(calls.borrow().as_slice(), &[("add", false)]);
    }

    #[test]
    fn dispatch_wrapper_rejects_bad_args_with_method_context() {
        let mut el = EventLoop::new_virtual();
        let (router, calls) = setup(&mut el);

        let err = Rc::new(RefCell::new(None));
        let e = err.clone();
        let xrl = Xrl::generic(
            "math",
            "test_math",
            "1.0",
            "add",
            XrlArgs::new().add_u32("a", 1).add_str("b", "oops"),
        );
        router.send(
            &mut el,
            xrl,
            Box::new(move |_el, r| {
                *e.borrow_mut() = Some(r);
            }),
        );
        el.run_until_idle();

        let got = err.borrow_mut().take().unwrap();
        let msg = match got {
            Err(XrlError::BadArgs(m)) => m,
            other => panic!("expected BadArgs, got {other:?}"),
        };
        // The decode error names both the offending field and the method.
        assert!(msg.contains('b'), "{msg}");
        assert!(msg.contains("test_math/1.0/add"), "{msg}");
        // The server implementation never ran.
        assert!(calls.borrow().is_empty());
    }
}
