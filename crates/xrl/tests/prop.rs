//! Property tests: XRL textual and binary encodings round-trip for
//! arbitrary atoms, and malformed frames never panic.

use proptest::prelude::*;
use xorp_profiler::tracing::TraceContext;
use xorp_xrl::marshal::{read_frame, Frame, FrameDecoder, MAX_FRAME_LEN};
use xorp_xrl::{AtomValue, Xrl, XrlArgs, XrlAtom};

fn arb_trace() -> impl Strategy<Value = Option<TraceContext>> {
    proptest::option::of(
        (any::<u64>(), any::<u32>()).prop_map(|(trace_id, parent_span)| TraceContext {
            trace_id,
            parent_span,
        }),
    )
}

fn arb_value() -> impl Strategy<Value = AtomValue> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(AtomValue::I32),
        any::<u32>().prop_map(AtomValue::U32),
        any::<i64>().prop_map(AtomValue::I64),
        any::<u64>().prop_map(AtomValue::U64),
        any::<bool>().prop_map(AtomValue::Bool),
        "[ -~]{0,40}".prop_map(AtomValue::Text), // printable ASCII incl. reserved chars
        any::<u32>().prop_map(|b| AtomValue::Ipv4(std::net::Ipv4Addr::from(b))),
        any::<u128>().prop_map(|b| AtomValue::Ipv6(std::net::Ipv6Addr::from(b))),
        (any::<u32>(), 0u8..=32).prop_map(|(b, l)| {
            AtomValue::Ipv4Net(xorp_net::Prefix::new(std::net::Ipv4Addr::from(b), l).unwrap())
        }),
        (any::<u128>(), 0u8..=128).prop_map(|(b, l)| {
            AtomValue::Ipv6Net(xorp_net::Prefix::new(std::net::Ipv6Addr::from(b), l).unwrap())
        }),
        proptest::array::uniform6(any::<u8>()).prop_map(|b| AtomValue::Mac(xorp_net::Mac(b))),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(AtomValue::Binary),
    ];
    // Lists contain leaves only (the paper: "lists of these primitives").
    prop_oneof![
        9 => leaf.clone(),
        1 => proptest::collection::vec(leaf, 0..5).prop_map(AtomValue::List),
    ]
}

fn arb_args() -> impl Strategy<Value = XrlArgs> {
    proptest::collection::vec(("[a-z][a-z0-9_]{0,12}", arb_value()), 0..8).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            // Ensure unique names: prefix with index.
            .map(|(i, (name, value))| XrlAtom::new(format!("a{i}_{name}"), value))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn args_text_roundtrip(args in arb_args()) {
        let text = args.render();
        let parsed = XrlArgs::parse(&text).unwrap();
        prop_assert_eq!(parsed, args);
    }

    #[test]
    fn xrl_text_roundtrip(
        args in arb_args(),
        target in "[a-z][a-z0-9-]{0,10}",
        method in "[a-z_][a-z0-9_]{0,15}",
    ) {
        let xrl = Xrl::generic(target, "iface", "1.0", method, args);
        let text = xrl.to_string();
        let parsed: Xrl = text.parse().unwrap();
        prop_assert_eq!(parsed, xrl);
    }

    #[test]
    fn frame_binary_roundtrip(
        args in arb_args(),
        seq in any::<u64>(),
        key in any::<[u8; 16]>(),
        priority in any::<bool>(),
    ) {
        let frame = Frame::Request {
            seq,
            sender: seq ^ 0x5a5a,
            target: "t".into(),
            key,
            path: "i/1.0/m".into(),
            method_id: None,
            args,
            priority,
            trace: None,
        };
        let mut encoded = frame.encode();
        use bytes::Buf;
        let mut bytes = bytes::Bytes::from(encoded.split().to_vec());
        let len = bytes.get_u32() as usize;
        prop_assert_eq!(len, bytes.remaining());
        let decoded = Frame::decode(bytes).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn response_binary_roundtrip(args in arb_args(), seq in any::<u64>(), priority in any::<bool>()) {
        let frame = Frame::Response { seq, result: Ok(args), priority };
        let encoded = frame.encode();
        use bytes::Buf;
        let mut bytes = bytes::Bytes::from(encoded.to_vec());
        let _ = bytes.get_u32();
        prop_assert_eq!(Frame::decode(bytes).unwrap(), frame);
    }

    /// Wire-v2 positional frames round-trip: no path string, no argument
    /// names, just `method_id` plus typed values in signature order — and
    /// when a trace context rides along, the 12-byte trailer round-trips
    /// with them.
    #[test]
    fn frame_v2_binary_roundtrip(
        values in proptest::collection::vec(arb_value(), 0..8),
        seq in any::<u64>(),
        method_id in any::<u32>(),
        key in any::<[u8; 16]>(),
        priority in any::<bool>(),
        trace in arb_trace(),
    ) {
        let mut args = XrlArgs::new();
        for v in values {
            args.push_value(v);
        }
        let frame = Frame::Request {
            seq,
            sender: seq ^ 0xa5a5,
            target: "t".into(),
            key,
            path: String::new(),
            method_id: Some(method_id),
            args,
            priority,
            trace,
        };
        let mut encoded = frame.encode();
        use bytes::Buf;
        let mut bytes = bytes::Bytes::from(encoded.split().to_vec());
        let len = bytes.get_u32() as usize;
        prop_assert_eq!(len, bytes.remaining());
        let decoded = Frame::decode(bytes).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Arbitrary garbage never panics the decoder; it errors or yields a
    /// frame.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Frame::decode(bytes::Bytes::from(bytes));
    }

    /// Garbage stamped with the v2 kind byte never panics either: the
    /// positional decoder hits the same truncation/type guards.
    #[test]
    fn v2_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut stamped = vec![3u8]; // KIND_REQUEST_V2
        stamped.extend(bytes);
        let _ = Frame::decode(bytes::Bytes::from(stamped));
    }

    /// Every strict prefix of a valid frame body fails to decode (no
    /// partial-read confusion).
    #[test]
    fn truncated_frames_error(args in arb_args()) {
        let frame = Frame::Request {
            seq: 7,
            sender: 3,
            target: "t".into(),
            key: [9u8; 16],
            path: "i/1.0/m".into(),
            method_id: None,
            args,
            priority: false,
            trace: None,
        };
        let encoded = frame.encode().to_vec();
        let body = &encoded[4..];
        for cut in 0..body.len() {
            prop_assert!(Frame::decode(bytes::Bytes::copy_from_slice(&body[..cut])).is_err());
        }
    }

    /// Likewise for v2 bodies, traced or not: every strict prefix errors
    /// cleanly — including prefixes that cut into the trace trailer.
    #[test]
    fn truncated_v2_frames_error(
        values in proptest::collection::vec(arb_value(), 0..6),
        trace in arb_trace(),
    ) {
        let mut args = XrlArgs::new();
        for v in values {
            args.push_value(v);
        }
        let frame = Frame::Request {
            seq: 7,
            sender: 3,
            target: "t".into(),
            key: [9u8; 16],
            path: String::new(),
            method_id: Some(42),
            args,
            priority: false,
            trace,
        };
        let encoded = frame.encode().to_vec();
        let body = &encoded[4..];
        for cut in 0..body.len() {
            prop_assert!(Frame::decode(bytes::Bytes::copy_from_slice(&body[..cut])).is_err());
        }
    }
}

/// A reader that hands out its bytes in pre-decided chunk sizes (cycled),
/// never more than asked for — every way a socket can fragment a stream.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    turn: usize,
}

impl std::io::Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.turn % self.sizes.len()];
        self.turn += 1;
        let n = size.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drain a stream through the incremental decoder: every body it yields,
/// and how the stream ended.
fn decode_stream(decoder: &mut FrameDecoder, r: &mut impl std::io::Read) -> (Vec<Vec<u8>>, bool) {
    let mut bodies = Vec::new();
    loop {
        loop {
            match decoder.next_frame() {
                Ok(Some(body)) => bodies.push(body.to_vec()),
                Ok(None) => break,
                Err(_) => return (bodies, false),
            }
        }
        match decoder.fill(r) {
            Ok(0) => return (bodies, true),
            Ok(_) => {}
            Err(_) => return (bodies, false),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// However the stream is chunked — 1-byte reads, reads that end inside
    /// a length header, a frame several times the decoder's buffer — the
    /// incremental decoder yields exactly the bodies `read_frame` yields
    /// on the same bytes, and sees a clean end of stream.
    #[test]
    fn incremental_decoder_matches_read_frame(
        bodies in proptest::collection::vec(
            prop_oneof![
                8 => proptest::collection::vec(any::<u8>(), 0..120),
                1 => proptest::collection::vec(any::<u8>(), 600..2000),
            ],
            0..12,
        ),
        sizes in proptest::collection::vec(
            prop_oneof![3 => 1usize..4, 2 => 1usize..64, 1 => 64usize..4096],
            1..8,
        ),
        capacity in 4usize..512,
    ) {
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&(b.len() as u32).to_be_bytes());
            stream.extend_from_slice(b);
        }
        let mut cursor = std::io::Cursor::new(stream.clone());
        let mut expected = Vec::new();
        while let Ok(body) = read_frame(&mut cursor) {
            expected.push(body.to_vec());
        }
        prop_assert_eq!(&expected, &bodies);

        let mut decoder = FrameDecoder::with_capacity(capacity);
        let mut r = Chunked { data: stream, pos: 0, sizes, turn: 0 };
        let (got, clean_eof) = decode_stream(&mut decoder, &mut r);
        prop_assert!(clean_eof);
        prop_assert_eq!(got, expected);
    }
}

/// A length header above the 64 MiB cap fails the stream on the header
/// alone: the decoder's buffer is exactly as small as it was built, and
/// the frames ahead of the bad header were still delivered.
#[test]
fn oversized_length_header_rejected_without_allocating() {
    let good = Frame::Kill { signal: 9 }.encode().to_vec();
    let mut stream = good.clone();
    stream.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
    stream.extend_from_slice(&[0u8; 32]);

    let mut decoder = FrameDecoder::with_capacity(64);
    let mut r = Chunked {
        data: stream.clone(),
        pos: 0,
        sizes: vec![7],
        turn: 0,
    };
    let (got, clean_eof) = decode_stream(&mut decoder, &mut r);
    assert_eq!(got, vec![good[4..].to_vec()]);
    assert!(!clean_eof, "the oversized header must fail the stream");
    assert_eq!(decoder.buffer_len(), 64, "rejected before any growth");
    // The blocking reader draws the same line.
    let mut cursor = std::io::Cursor::new(stream);
    assert!(read_frame(&mut cursor).is_ok());
    assert!(read_frame(&mut cursor).is_err());

    // At the cap itself the header is accepted (and only then is room
    // made): the decoder asks for more bytes instead of failing.
    let mut at_cap = FrameDecoder::with_capacity(64);
    let mut header = std::io::Cursor::new((MAX_FRAME_LEN as u32).to_be_bytes().to_vec());
    assert_eq!(at_cap.fill(&mut header).unwrap(), 4);
    assert!(matches!(at_cap.next_frame(), Ok(None)));
}
