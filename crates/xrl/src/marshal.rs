//! Binary wire format for XRL requests and responses.
//!
//! "Internally XRLs are encoded more efficiently" than the textual form
//! (§6.1).  Each protocol family is responsible for marshaling; this module
//! is the shared encoder/decoder used by the TCP and UDP families.
//!
//! Frame layout (all integers big-endian):
//!
//! ```text
//! u32  length of remainder
//! u8   kind (low 6 bits: 0 = request, 1 = response, 2 = kill,
//!            3 = request v2 (positional);
//!            bit 6: trace — a v2 request ends in a 12-byte trace trailer;
//!            bit 7: priority — deliver ahead of queued bulk frames)
//! request:    u64 seq | u64 sender | str target | [u8;16] key | str path | args
//! request v2: u64 seq | u64 sender | str target | [u8;16] key | u32 method_id
//!             | u16 count | (u8 type | value)* | [u64 trace_id | u32 parent_span]
//! response:   u64 seq | u8 code (0 = ok) | str errmsg | args
//! kill:       u32 signal
//! str:        u16 len | bytes
//! args:       u16 count | (str name | u8 type | value)*
//! ```
//!
//! A v2 request carries neither the method path nor argument names: the
//! sender negotiated a per-target signature at resolution time (the
//! Finder advertises `(path → method_id, sig_hash)` for targets registered
//! through signed interfaces), so both sides agree on argument order.
//! Senders fall back to v1 named frames for peers that never advertised a
//! signature — mixed-version interop is transparent.
//!
//! A frame's `args` is an [`XrlArgs`] block: the atoms in exactly this
//! grammar, so encoding copies the block's bytes after its count, and
//! decoding checks them once with [`crate::wire::AtomReader`] and copies
//! them out once.  A block built in the other layout — a positional reply,
//! a named block on a v2 request — is rewritten by one walk as it is
//! encoded.
//!
//! The trace bit exists only on the v2 kind byte: a sampled route's
//! [`TraceContext`] rides the frame as a fixed 12-byte trailer after the
//! positional arguments.  v1 frames and unflagged v2 frames are
//! byte-identical to the pre-tracing encoding, so v1-pinned peers and
//! unsampled traffic never see the extension.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use xorp_profiler::tracing::TraceContext;

use crate::atom::XrlArgs;
use crate::error::XrlError;
use crate::wire::AtomReader;

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A method invocation.
    Request {
        /// Correlation id, chosen by the sender and echoed verbatim by the
        /// response.  Its top bit is [`crate::SEQ_MAY_RECUR`]: set when the
        /// sender may transmit this request more than once.
        seq: u64,
        /// The sending router's id.  Together with `seq` this identifies a
        /// request end-to-end, so receivers can deduplicate retransmissions
        /// and replay the cached response instead of re-dispatching.
        sender: u64,
        /// Target instance name on the receiving router.
        target: String,
        /// The 16-byte method key issued at registration (§7).
        key: [u8; 16],
        /// `iface/version/method`.  Empty on a decoded v2 frame: the
        /// receiver resolves the method from `method_id` instead.
        path: String,
        /// Interned method id, present when the sender negotiated the
        /// target's signature.  `Some` selects the v2 positional encoding.
        method_id: Option<u32>,
        /// Arguments.
        args: XrlArgs,
        /// Wire-carried priority mark.  The *receiver's* reader thread
        /// routes priority frames onto its loop's priority lane so they
        /// overtake queued bulk posts — without this, a supervision
        /// keepalive FIFO-queues behind seconds of data frames on a
        /// saturated process and the prober misdiagnoses busy as dead.
        priority: bool,
        /// Causal trace context carried as a v2 trailer.  Only encoded
        /// when `method_id` is `Some`: the v1 wire has no trailer and a
        /// trace on a v1 frame is silently dropped, so v1-pinned peers
        /// never receive a flagged frame.
        trace: Option<TraceContext>,
    },
    /// The reply to a request.
    Response {
        /// Correlation id copied from the request.
        seq: u64,
        /// `Ok(args)` or the error the dispatch produced.
        result: Result<XrlArgs, XrlError>,
        /// Copied from the request, so the reply jumps receive queues on
        /// the way back just as the request did on the way in.
        priority: bool,
    },
    /// The kill protocol family's single message: a UNIX-style signal.
    Kill {
        /// Signal number (15 = TERM by convention).
        signal: u32,
    },
}

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;
const KIND_KILL: u8 = 2;
/// Positional request: no path string, no argument names.
const KIND_REQUEST_V2: u8 = 3;
/// Trace flag: the frame ends in a 12-byte `TraceContext` trailer.
/// Valid only in combination with [`KIND_REQUEST_V2`].
const KIND_TRACED: u8 = 0x40;
/// A traced v2 request's kind bits (modulo priority).
const KIND_REQUEST_V2_TRACED: u8 = KIND_REQUEST_V2 | KIND_TRACED;
/// High bit of the kind byte: priority delivery.
const KIND_PRIORITY: u8 = 0x80;

/// `s` cut at a char boundary to the most a `str` field holds.  Error
/// text can outgrow it: it may quote a target or path a peer sent at the
/// field's full length.
fn fit_str(s: &str) -> &str {
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn put_str(buf: &mut impl BufMut, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, XrlError> {
    let mut r = AtomReader::new(buf);
    let s = r.name()?.to_owned();
    *buf = r.rest();
    Ok(s)
}

impl Frame {
    /// Whether this frame asks for priority delivery on the receive side.
    pub fn is_priority(&self) -> bool {
        match self {
            Frame::Request { priority, .. } | Frame::Response { priority, .. } => *priority,
            Frame::Kill { .. } => true, // kill is control-plane: never queue it
        }
    }

    /// Encoded size, length header included, without encoding: the
    /// memory a queued or retained frame holds.
    pub fn wire_len(&self) -> usize {
        5 + match self {
            Frame::Request {
                target,
                path,
                args,
                method_id,
                trace,
                ..
            } => {
                let method = match (method_id, trace) {
                    (Some(_), Some(_)) => 4 + 12, // id and trace trailer
                    (Some(_), None) => 4,
                    (None, _) => 2 + path.len(),
                };
                16 + 2 + target.len() + 16 + method + args.wire_len(method_id.is_none())
            }
            Frame::Response { result, .. } => {
                8 + 1
                    + match result {
                        Ok(args) => 2 + args.wire_len(true),
                        Err(e) => 2 + fit_str(e.payload()).len() + 2,
                    }
            }
            Frame::Kill { .. } => 4,
        }
    }

    /// Encode this frame, including the length header.
    pub fn encode(&self) -> BytesMut {
        let mut out = BytesMut::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    /// Append this frame, length header included, to `out` — the TCP
    /// family's per-connection out-buffer, where a turn's frames pile up
    /// for one `write`.  The header is written as a placeholder and
    /// patched once the body's length is known, so the body is encoded in
    /// place rather than staged in a buffer of its own.
    pub fn encode_into<B>(&self, out: &mut B)
    where
        B: BufMut + std::ops::DerefMut<Target = [u8]>,
    {
        let start = out.len();
        out.put_u32(0);
        self.encode_body(out);
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_be_bytes());
    }

    fn encode_body(&self, body: &mut impl BufMut) {
        let pri = |p: &bool| if *p { KIND_PRIORITY } else { 0 };
        match self {
            Frame::Request {
                seq,
                sender,
                target,
                key,
                path,
                args,
                method_id,
                priority,
                trace,
            } => match method_id {
                Some(id) => {
                    let kind = match trace {
                        Some(_) => KIND_REQUEST_V2_TRACED,
                        None => KIND_REQUEST_V2,
                    };
                    body.put_u8(kind | pri(priority));
                    body.put_u64(*seq);
                    body.put_u64(*sender);
                    put_str(body, target);
                    body.put_slice(key);
                    body.put_u32(*id);
                    args.put_into(body, false);
                    if let Some(t) = trace {
                        body.put_u64(t.trace_id);
                        body.put_u32(t.parent_span);
                    }
                }
                None => {
                    body.put_u8(KIND_REQUEST | pri(priority));
                    body.put_u64(*seq);
                    body.put_u64(*sender);
                    put_str(body, target);
                    body.put_slice(key);
                    put_str(body, path);
                    args.put_into(body, true);
                }
            },
            Frame::Response {
                seq,
                result,
                priority,
            } => {
                body.put_u8(KIND_RESPONSE | pri(priority));
                body.put_u64(*seq);
                match result {
                    Ok(args) => {
                        body.put_u8(0);
                        put_str(body, "");
                        args.put_into(body, true);
                    }
                    Err(e) => {
                        body.put_u8(e.code());
                        put_str(body, fit_str(e.payload()));
                        body.put_u16(0); // no arguments
                    }
                }
            }
            Frame::Kill { signal } => {
                body.put_u8(KIND_KILL);
                body.put_u32(*signal);
            }
        }
    }

    /// Decode a frame body (the bytes after the u32 length header).
    pub fn decode(body: Bytes) -> Result<Frame, XrlError> {
        Frame::decode_from(&mut &body[..])
    }

    /// [`Frame::decode`] over a borrowed body — what the TCP reader uses
    /// on the slices its [`FrameDecoder`] yields, so a frame costs no
    /// body allocation of its own.
    pub fn decode_slice(mut body: &[u8]) -> Result<Frame, XrlError> {
        Frame::decode_from(&mut body)
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Frame, XrlError> {
        if buf.remaining() < 1 {
            return Err(XrlError::BadFrame("empty frame".into()));
        }
        let kind = buf.get_u8();
        let priority = kind & KIND_PRIORITY != 0;
        let frame = match kind & !KIND_PRIORITY {
            KIND_REQUEST => {
                if buf.remaining() < 16 {
                    return Err(XrlError::BadFrame("truncated request".into()));
                }
                let seq = buf.get_u64();
                let sender = buf.get_u64();
                let target = get_str(buf)?;
                if buf.remaining() < 16 {
                    return Err(XrlError::BadFrame("truncated key".into()));
                }
                let mut key = [0u8; 16];
                buf.copy_to_slice(&mut key);
                let path = get_str(buf)?;
                let args = XrlArgs::decode(buf, true)?;
                Frame::Request {
                    seq,
                    sender,
                    target,
                    key,
                    path,
                    args,
                    method_id: None,
                    priority,
                    trace: None,
                }
            }
            kind_v2 @ (KIND_REQUEST_V2 | KIND_REQUEST_V2_TRACED) => {
                if buf.remaining() < 16 {
                    return Err(XrlError::BadFrame("truncated request".into()));
                }
                let seq = buf.get_u64();
                let sender = buf.get_u64();
                let target = get_str(buf)?;
                if buf.remaining() < 20 {
                    return Err(XrlError::BadFrame("truncated key".into()));
                }
                let mut key = [0u8; 16];
                buf.copy_to_slice(&mut key);
                let method_id = buf.get_u32();
                let args = XrlArgs::decode(buf, false)?;
                let trace = if kind_v2 == KIND_REQUEST_V2_TRACED {
                    if buf.remaining() < 12 {
                        return Err(XrlError::BadFrame("truncated trace trailer".into()));
                    }
                    Some(TraceContext {
                        trace_id: buf.get_u64(),
                        parent_span: buf.get_u32(),
                    })
                } else {
                    None
                };
                Frame::Request {
                    seq,
                    sender,
                    target,
                    key,
                    path: String::new(),
                    args,
                    method_id: Some(method_id),
                    priority,
                    trace,
                }
            }
            KIND_RESPONSE => {
                if buf.remaining() < 9 {
                    return Err(XrlError::BadFrame("truncated response".into()));
                }
                let seq = buf.get_u64();
                let code = buf.get_u8();
                let msg = get_str(buf)?;
                let args = XrlArgs::decode(buf, true)?;
                let result = if code == 0 {
                    Ok(args)
                } else {
                    Err(XrlError::from_code(code, msg))
                };
                Frame::Response {
                    seq,
                    result,
                    priority,
                }
            }
            KIND_KILL => {
                if buf.remaining() < 4 {
                    return Err(XrlError::BadFrame("truncated kill".into()));
                }
                Frame::Kill {
                    signal: buf.get_u32(),
                }
            }
            k => return Err(XrlError::BadFrame(format!("unknown frame kind {k}"))),
        };
        // A body is exactly one frame: bytes left over mean a count the
        // sender wrapped, or a corrupt stream.
        match buf.remaining() {
            0 => Ok(frame),
            n => Err(XrlError::BadFrame(format!(
                "{n} bytes after the frame body"
            ))),
        }
    }
}

/// Largest frame body either stream reader accepts; a longer length header
/// is a corrupt or hostile stream and is rejected before any allocation.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

fn frame_too_large() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large")
}

/// Read one length-prefixed frame from a blocking reader.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Bytes> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(frame_too_large());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Bytes::from(body))
}

/// Incremental stream decoder: one reusable buffer that takes whatever a
/// `read` returns and yields every complete frame body it holds, however
/// the stream was chunked.  [`read_frame`] costs two `read_exact`s and a
/// `Vec` per frame; this costs one `read` per *buffer-full* of frames and
/// no per-frame allocation — bodies are borrowed straight from the buffer.
///
/// The buffer grows only for a single frame larger than its capacity (and
/// only after the length header passed the [`MAX_FRAME_LEN`] check), and
/// shrinks back once that frame is consumed.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Steady-state size of `buf`.
    capacity: usize,
    /// `buf[start..end]` holds bytes read but not yet yielded.
    start: usize,
    end: usize,
}

impl FrameDecoder {
    /// A decoder whose buffer holds `capacity` bytes between reads.
    pub fn with_capacity(capacity: usize) -> FrameDecoder {
        let capacity = capacity.max(4);
        FrameDecoder {
            buf: vec![0u8; capacity],
            capacity,
            start: 0,
            end: 0,
        }
    }

    /// Current size of the internal buffer: the construction capacity,
    /// except while a single larger frame is in flight.
    pub fn buffer_len(&self) -> usize {
        self.buf.len()
    }

    /// Body length announced by the pending header, once all four header
    /// bytes are in.
    fn pending_len(&self) -> std::io::Result<Option<usize>> {
        let Some(header) = self.buf[self.start..self.end].first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(frame_too_large());
        }
        Ok(Some(len))
    }

    /// Issue exactly one `read` into the buffer's free space; returns the
    /// byte count (`0` is end of stream).  Call after [`next_frame`]
    /// returned `None`: whatever partial frame is left is first moved to
    /// the front, so the read has the rest of the buffer to fill.
    ///
    /// [`next_frame`]: FrameDecoder::next_frame
    pub fn fill(&mut self, r: &mut impl std::io::Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let wanted = match self.pending_len()? {
            Some(len) => 4 + len,
            None => 4,
        };
        if wanted > self.buf.len() {
            // One frame larger than the buffer: make room for exactly it.
            self.buf.resize(wanted, 0);
        } else if self.end == 0 && self.buf.len() > self.capacity {
            // The oversized frame is gone; give its memory back.
            self.buf.truncate(self.capacity);
            self.buf.shrink_to_fit();
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next complete frame body (the bytes after the length header),
    /// or `None` when the buffer holds only a partial frame.  Fails — with
    /// nothing allocated — on a length header above [`MAX_FRAME_LEN`].
    pub fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        let Some(len) = self.pending_len()? else {
            return Ok(None);
        };
        let body = self.start + 4;
        if self.end - body < len {
            return Ok(None);
        }
        self.start = body + len;
        Ok(Some(&self.buf[body..body + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomValue;

    fn roundtrip(f: Frame) {
        let encoded = f.encode();
        // Strip the length header the way a reader would.
        let mut bytes = Bytes::from(encoded.to_vec());
        let len = bytes.get_u32() as usize;
        assert_eq!(len, bytes.remaining());
        let decoded = Frame::decode(bytes).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn request_roundtrip() {
        roundtrip(Frame::Request {
            seq: 42,
            sender: 7,
            target: "bgp".into(),
            key: [7u8; 16],
            path: "bgp/1.0/set_local_as".into(),
            args: XrlArgs::new().add_u32("as", 1777),
            method_id: None,
            priority: false,
            trace: None,
        });
    }

    #[test]
    fn response_ok_roundtrip() {
        roundtrip(Frame::Response {
            seq: 43,
            result: Ok(XrlArgs::new()
                .add_str("status", "fine")
                .add_ipv6("addr", "2001:db8::1".parse().unwrap())),
            priority: false,
        });
    }

    #[test]
    fn response_err_roundtrip() {
        let f = Frame::Response {
            seq: 44,
            result: Err(XrlError::NoSuchMethod("no such method: x".into())),
            priority: false,
        };
        let encoded = f.encode();
        let mut bytes = Bytes::from(encoded.to_vec());
        let _ = bytes.get_u32();
        match Frame::decode(bytes).unwrap() {
            Frame::Response {
                seq: 44,
                result: Err(XrlError::NoSuchMethod(_)),
                priority: false,
            } => {}
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn kill_roundtrip() {
        roundtrip(Frame::Kill { signal: 15 });
    }

    #[test]
    fn priority_bit_roundtrips_and_marks_frame() {
        let req = Frame::Request {
            seq: 50,
            sender: 8,
            target: "bgp".into(),
            key: [3u8; 16],
            path: "common/0.1/keepalive".into(),
            args: XrlArgs::new(),
            method_id: None,
            priority: true,
            trace: None,
        };
        assert!(req.is_priority());
        roundtrip(req);
        let resp = Frame::Response {
            seq: 50,
            result: Ok(XrlArgs::new()),
            priority: true,
        };
        assert!(resp.is_priority());
        roundtrip(resp);
        // The bit rides the kind byte: same frame without it differs only
        // there, and decodes as non-priority.
        let plain = Frame::Response {
            seq: 50,
            result: Ok(XrlArgs::new()),
            priority: false,
        };
        assert!(!plain.is_priority());
        let hot = Frame::Response {
            seq: 50,
            result: Ok(XrlArgs::new()),
            priority: true,
        }
        .encode();
        let cold = plain.encode();
        assert_eq!(hot.len(), cold.len());
        assert_eq!(hot[4], cold[4] | 0x80);
        assert_eq!(&hot[5..], &cold[5..]);
    }

    #[test]
    fn all_atom_types_roundtrip() {
        roundtrip(Frame::Request {
            seq: 1,
            sender: 2,
            target: "t".into(),
            key: [0u8; 16],
            path: "i/1.0/m".into(),
            args: XrlArgs::new()
                .add_i32("a", -5)
                .add_u32("b", 5)
                .add_i64("c", -1 << 40)
                .add_u64("d", 1 << 40)
                .add_bool("e", true)
                .add_str("f", "text with spaces")
                .add_ipv4("g", "10.0.0.1".parse().unwrap())
                .add_ipv6("h", "::1".parse().unwrap())
                .add_ipv4net("i", "10.0.0.0/8".parse().unwrap())
                .add_ipv6net("j", "2001:db8::/32".parse().unwrap())
                .add_mac("k", "00:11:22:33:44:55".parse().unwrap())
                .add_binary("l", vec![1, 2, 3])
                .add_list("m", vec![AtomValue::U32(1), AtomValue::Text("x".into())]),
            method_id: None,
            priority: false,
            trace: None,
        });
    }

    #[test]
    fn truncated_frames_rejected() {
        let f = Frame::Request {
            seq: 1,
            sender: 2,
            target: "t".into(),
            key: [0u8; 16],
            path: "i/1.0/m".into(),
            args: XrlArgs::new().add_u32("a", 1),
            method_id: None,
            priority: false,
            trace: None,
        };
        let encoded = f.encode().to_vec();
        // Every strict prefix of the body must fail to decode, not panic.
        for cut in 1..encoded.len() - 4 {
            let body = Bytes::from(encoded[4..4 + cut].to_vec());
            assert!(Frame::decode(body).is_err(), "prefix len {cut} decoded");
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(Frame::decode(Bytes::from_static(&[99])).is_err());
        assert!(Frame::decode(Bytes::new()).is_err());
    }

    #[test]
    fn batched_route_rows_roundtrip() {
        // The shape the vectorized rib/1.0/add_routes frame uses: one
        // `routes` atom, rows nested as lists.
        let rows: Vec<AtomValue> = (0..300u32)
            .map(|i| {
                AtomValue::List(vec![
                    AtomValue::Ipv4Net(format!("10.{}.{}.0/24", i / 256, i % 256).parse().unwrap()),
                    AtomValue::Ipv4(format!("192.168.0.{}", i % 250 + 1).parse().unwrap()),
                    AtomValue::Text("eth0".into()),
                    AtomValue::U32(i),
                ])
            })
            .collect();
        let args = XrlArgs::new().add_list("routes", rows.clone());
        roundtrip(Frame::Request {
            seq: 9,
            sender: 3,
            target: "rib".into(),
            key: [1u8; 16],
            path: "rib/1.0/add_routes".into(),
            args: args.clone(),
            method_id: None,
            priority: false,
            trace: None,
        });
        assert_eq!(args.get_list("routes").unwrap(), rows);
        // Textual form roundtrips too (rows carry nested escaping).
        assert_eq!(XrlArgs::parse(&args.render()).unwrap(), args);
    }

    #[test]
    fn deeply_nested_list_rejected() {
        // 17 levels of nesting: within the u16 count grammar but past the
        // decoder's depth cap.
        let mut v = AtomValue::U32(1);
        for _ in 0..17 {
            v = AtomValue::List(vec![v]);
        }
        let f = Frame::Request {
            seq: 1,
            sender: 2,
            target: "t".into(),
            key: [0u8; 16],
            path: "i/1.0/m".into(),
            args: XrlArgs::new().add_list("deep", vec![v]),
            method_id: None,
            priority: false,
            trace: None,
        };
        let encoded = f.encode();
        let mut bytes = Bytes::from(encoded.to_vec());
        let _ = bytes.get_u32();
        match Frame::decode(bytes) {
            Err(XrlError::BadFrame(msg)) => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("expected nesting rejection, got {other:?}"),
        }
    }

    #[test]
    fn two_level_nesting_accepted() {
        // Batch rows are exactly two levels; they must stay well inside
        // the cap.
        roundtrip(Frame::Request {
            seq: 1,
            sender: 2,
            target: "t".into(),
            key: [0u8; 16],
            path: "i/1.0/m".into(),
            args: XrlArgs::new().add_list(
                "rows",
                vec![
                    AtomValue::List(vec![AtomValue::U32(1)]),
                    AtomValue::List(vec![AtomValue::Text("x".into())]),
                ],
            ),
            method_id: None,
            priority: false,
            trace: None,
        });
    }

    /// The largest list the 16-bit count can describe comes back whole;
    /// one item more is refused by the count check the send core runs,
    /// before the request is charged.
    #[test]
    fn list_at_the_count_limit_roundtrips_exactly() {
        use crate::{Finder, Xrl, XrlResult, XrlRouter};
        use std::cell::RefCell;
        use std::rc::Rc;
        use xorp_event::EventLoop;

        let list = |n| XrlArgs::new().add_list("rows", vec![AtomValue::U32(7); n]);
        roundtrip(Frame::Response {
            seq: 1,
            result: Ok(list(65_535)),
            priority: false,
        });
        let mut el = EventLoop::new_virtual();
        let router = XrlRouter::new(&mut el, Finder::new());
        router.register_target("echo", "echo-0", true).unwrap();
        router.add_fn("echo-0", "echo/1.0/rows", |_el, args| Ok(args.clone()));
        let got: Rc<RefCell<Vec<XrlResult>>> = Rc::default();
        for n in [65_535, 65_536] {
            let g = got.clone();
            let xrl = Xrl::generic("echo", "echo", "1.0", "rows", list(n));
            router.send(&mut el, xrl, Box::new(move |_, r| g.borrow_mut().push(r)));
        }
        assert!(matches!(got.borrow()[..], [Err(XrlError::BadArgs(_))]));
        assert_eq!(router.pending_len(), 1, "only the countable request");
        el.run_until_idle();
        let echoed = got.borrow()[1].as_ref().unwrap().get_list("rows").unwrap();
        assert_eq!(echoed, vec![AtomValue::U32(7); 65_535]);
    }

    /// A body is exactly one frame: a byte left over is a wrapped count or
    /// a corrupt stream, rejected by `decode` and by the stream decoder's
    /// path alike.
    #[test]
    fn trailing_byte_after_a_frame_body_rejected() {
        for frame in [
            v2_add_route(),
            Frame::Response {
                seq: 3,
                result: Ok(XrlArgs::new()),
                priority: false,
            },
            Frame::Kill { signal: 15 },
        ] {
            let mut stream = frame.encode().to_vec();
            stream.push(0);
            let len = (stream.len() - 4) as u32;
            stream[..4].copy_from_slice(&len.to_be_bytes());
            assert!(Frame::decode(Bytes::copy_from_slice(&stream[4..])).is_err());

            let mut decoder = FrameDecoder::with_capacity(1024);
            decoder.fill(&mut std::io::Cursor::new(stream)).unwrap();
            let body = decoder.next_frame().unwrap().expect("a whole frame");
            assert!(Frame::decode_slice(body).is_err(), "{frame:?}");
        }
    }

    #[test]
    fn read_frame_from_stream() {
        let f = Frame::Kill { signal: 9 };
        let encoded = f.encode().to_vec();
        let mut cursor = std::io::Cursor::new(encoded);
        let body = read_frame(&mut cursor).unwrap();
        assert_eq!(Frame::decode(body).unwrap(), f);
    }

    /// The canonical v2 positional request used across the v2 tests:
    /// rib/1.0/add_route's argument tuple, unnamed.
    fn v2_add_route() -> Frame {
        let mut args = XrlArgs::new();
        args.push_value(AtomValue::Ipv4Net("10.1.2.0/24".parse().unwrap()));
        args.push_value(AtomValue::Ipv4("192.168.0.1".parse().unwrap()));
        args.push_value(AtomValue::Text("eth0".into()));
        args.push_value(AtomValue::U32(5));
        args.push_value(AtomValue::Text("ebgp".into()));
        Frame::Request {
            seq: 42,
            sender: 7,
            target: "rib-0".into(),
            key: [7u8; 16],
            path: String::new(),
            args,
            method_id: Some(3),
            priority: false,
            trace: None,
        }
    }

    #[test]
    fn v2_request_roundtrip() {
        roundtrip(v2_add_route());
    }

    #[test]
    fn v2_priority_bit_roundtrips() {
        let mut f = v2_add_route();
        if let Frame::Request { priority, .. } = &mut f {
            *priority = true;
        }
        assert!(f.is_priority());
        roundtrip(f);
    }

    #[test]
    fn v2_drops_path_and_names_from_wire() {
        // The same add_route call both ways: v1 named vs v2 positional.
        let v1 = Frame::Request {
            seq: 42,
            sender: 7,
            target: "rib-0".into(),
            key: [7u8; 16],
            path: "rib/1.0/add_route".into(),
            args: XrlArgs::new()
                .add_ipv4net("net", "10.1.2.0/24".parse().unwrap())
                .add_ipv4("nexthop", "192.168.0.1".parse().unwrap())
                .add_str("ifname", "eth0")
                .add_u32("metric", 5)
                .add_str("proto", "ebgp"),
            method_id: None,
            priority: false,
            trace: None,
        };
        let v2 = v2_add_route();
        let v1_len = v1.encode().len();
        let v2_len = v2.encode().len();
        assert!(
            (v2_len as f64) <= (v1_len as f64) * 0.70,
            "v2 must shave >= 30% off add_route: v1 {v1_len}B, v2 {v2_len}B"
        );
        // The encoded v2 frame must not contain the path or any arg name.
        let bytes = v2.encode().to_vec();
        let hay = String::from_utf8_lossy(&bytes).into_owned();
        for s in ["add_route", "net", "nexthop", "ifname", "metric", "proto"] {
            assert!(!hay.contains(s), "v2 wire leaks {s:?}");
        }
    }

    #[test]
    fn v2_truncated_frames_rejected() {
        let encoded = v2_add_route().encode().to_vec();
        for cut in 1..encoded.len() - 4 {
            let body = Bytes::from(encoded[4..4 + cut].to_vec());
            assert!(Frame::decode(body).is_err(), "prefix len {cut} decoded");
        }
    }

    fn traced(mut f: Frame) -> Frame {
        if let Frame::Request { trace, .. } = &mut f {
            *trace = Some(TraceContext {
                trace_id: 0xDEAD_BEEF_0BAD_CAFE,
                parent_span: 0x1234_5678,
            });
        }
        f
    }

    #[test]
    fn traced_v2_request_roundtrips() {
        roundtrip(traced(v2_add_route()));
        let mut f = traced(v2_add_route());
        if let Frame::Request { priority, .. } = &mut f {
            *priority = true;
        }
        roundtrip(f);
    }

    /// The trailer is strictly additive: a traced frame differs from its
    /// untraced twin by the 0x40 kind bit and exactly 12 trailing bytes —
    /// everything in between is untouched, which is why unsampled traffic
    /// stays byte-identical to the pre-tracing wire.
    #[test]
    fn trace_trailer_is_flag_bit_plus_twelve_bytes() {
        let plain = v2_add_route().encode();
        let hot = traced(v2_add_route()).encode();
        assert_eq!(hot.len(), plain.len() + 12);
        assert_eq!(hot[4], plain[4] | 0x40);
        assert_eq!(&hot[5..plain.len()], &plain[5..]);
        assert_eq!(
            &hot[plain.len()..],
            &[0xDE, 0xAD, 0xBE, 0xEF, 0x0B, 0xAD, 0xCA, 0xFE, 0x12, 0x34, 0x56, 0x78][..]
        );
    }

    /// A v1 (named) frame never grows a trailer, whatever the trace field
    /// says: the context is dropped at encode time so a v1-pinned peer
    /// cannot receive a flagged frame.
    #[test]
    fn v1_frames_drop_trace_silently() {
        let plain = Frame::Request {
            seq: 1,
            sender: 2,
            target: "t".into(),
            key: [0u8; 16],
            path: "i/1.0/m".into(),
            args: XrlArgs::new().add_u32("a", 1),
            method_id: None,
            priority: false,
            trace: None,
        };
        let hot = traced(plain.clone());
        assert_eq!(hot.encode(), plain.encode());
        assert_eq!(plain.encode()[4], 0, "v1 kind byte must stay 0");
    }

    /// The trace bit on anything but a v2 request is an invalid frame,
    /// not a silent pass-through.
    #[test]
    fn trace_bit_on_non_v2_kinds_rejected() {
        for kind in [0x40u8, 0x41, 0x42, 0x44] {
            let body = Bytes::from(vec![kind, 0, 0, 0, 0]);
            assert!(Frame::decode(body).is_err(), "kind {kind:#x} decoded");
        }
    }

    #[test]
    fn traced_truncated_frames_rejected() {
        let encoded = traced(v2_add_route()).encode().to_vec();
        for cut in 1..encoded.len() - 4 {
            let body = Bytes::from(encoded[4..4 + cut].to_vec());
            assert!(Frame::decode(body).is_err(), "prefix len {cut} decoded");
        }
    }

    #[test]
    fn traced_frames_report_trailer_in_approx_len() {
        let plain = v2_add_route();
        let hot = traced(v2_add_route());
        assert_eq!(hot.wire_len(), plain.wire_len() + 12);
        for f in [plain, hot] {
            assert_eq!(f.wire_len(), f.encode().len());
        }
    }

    /// A frame's length is exact whichever layout its block was built in:
    /// a positional reply and a named block on a v2 request are rewritten
    /// as they are encoded, and counted as written.
    #[test]
    fn wire_len_is_exact_in_either_layout() {
        let Frame::Request {
            args: positional, ..
        } = v2_add_route()
        else {
            unreachable!()
        };
        let named = XrlArgs::new().add_u32("metric", 5).add_str("proto", "ebgp");
        let mut frames = vec![Frame::Kill { signal: 15 }];
        for args in [positional, named] {
            let mut v2 = v2_add_route();
            if let Frame::Request { args: a, .. } = &mut v2 {
                *a = args.clone();
            }
            frames.push(v2);
            frames.push(Frame::Response {
                seq: 1,
                result: Ok(args),
                priority: false,
            });
        }
        frames.push(Frame::Response {
            seq: 2,
            result: Err(XrlError::BadArgs("no".into())),
            priority: false,
        });
        for f in frames {
            assert_eq!(f.wire_len(), f.encode().len(), "{f:?}");
            assert!(Frame::decode_slice(&f.encode()[4..]).is_ok(), "{f:?}");
        }
    }

    /// An error reply carries its variant's text, not its `Display`: a
    /// `BadArgs` that crosses one hop decodes equal to the one sent, and
    /// shows its prefix once.
    #[test]
    fn error_reply_roundtrips_with_one_prefix() {
        let sent = XrlError::BadArgs("hostile/1.0/take: missing argument label".into());
        let reply = Frame::Response {
            seq: 7,
            result: Err(sent.clone()),
            priority: false,
        };
        let bytes = reply.encode();
        assert_eq!(reply.wire_len(), bytes.len());
        let Ok(Frame::Response {
            result: Err(got), ..
        }) = Frame::decode_slice(&bytes[4..])
        else {
            panic!("not an error reply");
        };
        assert_eq!(
            got.to_string().matches("bad XRL arguments").count(),
            1,
            "{got}"
        );
        assert_eq!(got, sent);
    }
}
