//! The replication wire protocol.
//!
//! All storage traffic — client requests, primary→backup replication,
//! acks, and cache invalidation pushes — travels as length-prefixed
//! binary frames over `doppio-sockets` TCP connections. Frames are
//! self-delimiting (`u32` little-endian payload length, then a tagged
//! payload), so a [`FrameBuffer`] can reassemble them from arbitrarily
//! fragmented deliveries.
//!
//! A stored payload — a put's data, a get's value — is a shared
//! [`Bytes`] and the last field of its frame. The encoders send it as a
//! [`Segment`] part of its own after the frame's small header, and
//! [`FrameBuffer`] decodes it as a slice of the part it arrived in, so
//! one allocation serves every hop, replica and resend.
//!
//! `Request` and `Replicate` frames carry an optional causal
//! [`SpanContext`] so traces cross the storage wire. The context is
//! encoded at a fixed width (a flag byte plus two u64s, zeros when
//! absent), which keeps frame lengths — and therefore simulated
//! transfer delays — independent of whether tracing is enabled.

use std::collections::VecDeque;

use doppio_sockets::{Bytes, Segment};
use doppio_trace::SpanContext;

/// A mutating operation: the unit of journaling and replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Store `data` at `key` (whole-blob overwrite).
    Put {
        /// Object key.
        key: String,
        /// Full contents.
        data: Bytes,
    },
    /// Remove `key` (missing is fine — deletes are idempotent).
    Delete {
        /// Object key.
        key: String,
    },
}

impl WriteOp {
    /// The key this write touches.
    pub fn key(&self) -> &str {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Delete { key } => key,
        }
    }

    /// Short name for logs.
    pub fn name(&self) -> &'static str {
        match self {
            WriteOp::Put { .. } => "put",
            WriteOp::Delete { .. } => "delete",
        }
    }

    /// The blob a put stores (`None` for a delete).
    pub(crate) fn data(&self) -> Option<&Bytes> {
        match self {
            WriteOp::Put { data, .. } => Some(data),
            WriteOp::Delete { .. } => None,
        }
    }
}

/// What a client can ask of the primary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOp {
    /// Fetch the blob at `key`.
    Get {
        /// Object key.
        key: String,
    },
    /// A journaled, replicated write.
    Write(WriteOp),
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → primary.
    Request {
        /// Client-chosen correlation id.
        req_id: u64,
        /// The operation.
        op: RequestOp,
        /// Causal context of the issuing request, if traced.
        ctx: Option<SpanContext>,
    },
    /// Primary → client: the answer to `req_id` (`value` is the blob
    /// for gets, `None` for writes and missing keys).
    Response {
        /// Echoed correlation id.
        req_id: u64,
        /// Get result.
        value: Option<Bytes>,
    },
    /// Primary → client push: drop `key` from the cache tier.
    Invalidate {
        /// Invalidated key.
        key: String,
    },
    /// Primary → backup: apply `op` as log sequence number `seq`.
    Replicate {
        /// Log sequence number (1-based, dense).
        seq: u64,
        /// The replicated write.
        op: WriteOp,
        /// Causal context of the originating write, if traced
        /// (`None` on retransmissions).
        ctx: Option<SpanContext>,
    },
    /// Backup → primary: everything up to `seq` is durable here.
    Ack {
        /// Highest contiguous durable sequence number.
        seq: u64,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// Reads one frame's payload through a cursor over the parts it
/// arrived in, never past the payload's end.
struct Reader<'a> {
    parts: &'a VecDeque<Bytes>,
    /// The part the cursor is in, and the offset within it.
    part: usize,
    off: usize,
    /// Payload bytes not read yet.
    left: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `parts`, bounded to `left` bytes.
    fn new(parts: &'a VecDeque<Bytes>, left: usize) -> Reader<'a> {
        Reader {
            parts,
            part: 0,
            off: 0,
            left,
        }
    }

    /// Claim the next `n` bytes: the part they start in and the offset
    /// there.
    fn advance(&mut self, n: usize) -> Option<(usize, usize)> {
        if n > self.left {
            return None;
        }
        self.left -= n;
        // At least `n` bytes lie ahead, so neither loop runs off the
        // last part.
        while self.off == self.parts[self.part].len() {
            self.part += 1;
            self.off = 0;
        }
        let at = (self.part, self.off);
        self.off += n;
        while self.off > self.parts[self.part].len() {
            self.off -= self.parts[self.part].len();
            self.part += 1;
        }
        Some(at)
    }

    /// Fill `out` from offset `off` of part `part` on, across parts.
    fn copy(&self, mut part: usize, mut off: usize, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let p = &self.parts[part];
            let n = (p.len() - off).min(out.len() - done);
            out[done..done + n].copy_from_slice(&p[off..off + n]);
            done += n;
            part += 1;
            off = 0;
        }
    }

    /// The next `n` bytes: a slice of the part they arrived in, or, if
    /// they span parts, a copy.
    fn take(&mut self, n: usize) -> Option<Bytes> {
        if n == 0 {
            return Some(Bytes::new());
        }
        let (part, off) = self.advance(n)?;
        let first = &self.parts[part];
        if off + n <= first.len() {
            return Some(first.slice(off..off + n));
        }
        let mut out = vec![0; n];
        self.copy(part, off, &mut out);
        Some(Bytes::from(out))
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (part, off) = self.advance(N)?;
        let mut out = [0; N];
        self.copy(part, off, &mut out);
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn bytes(&mut self) -> Option<Bytes> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }
}

fn put_ctx(buf: &mut Vec<u8>, ctx: Option<SpanContext>) {
    match ctx {
        Some(c) => {
            buf.push(1);
            put_u64(buf, c.trace_id);
            put_u64(buf, c.span_id);
        }
        None => {
            buf.push(0);
            put_u64(buf, 0);
            put_u64(buf, 0);
        }
    }
}

fn read_ctx(r: &mut Reader) -> Option<Option<SpanContext>> {
    let flag = r.u8()?;
    let trace_id = r.u64()?;
    let span_id = r.u64()?;
    Some((flag == 1).then_some(SpanContext { trace_id, span_id }))
}

/// Write `op` up to its payload: a put's data, with its length prefix
/// written here, follows as a part of its own.
fn encode_write(buf: &mut Vec<u8>, op: &WriteOp) {
    match op {
        WriteOp::Put { key, data } => {
            buf.push(1);
            put_bytes(buf, key.as_bytes());
            put_u32(buf, data.len() as u32);
        }
        WriteOp::Delete { key } => {
            buf.push(2);
            put_bytes(buf, key.as_bytes());
        }
    }
}

/// Encoded width of a causal context: a flag byte and two u64s.
const CTX_LEN: usize = 17;

/// Encoded length of a length-prefixed byte string.
fn bytes_len(b: &[u8]) -> usize {
    4 + b.len()
}

fn write_len(op: &WriteOp) -> usize {
    1 + match op {
        WriteOp::Put { key, data } => bytes_len(key.as_bytes()) + bytes_len(data),
        WriteOp::Delete { key } => bytes_len(key.as_bytes()),
    }
}

/// A complete frame of `len` payload bytes: its header, which `fill`
/// writes in one pass into a buffer allocated at its exact size, then
/// `payload`, shared, as a part of its own.
fn frame(len: usize, payload: Option<&Bytes>, fill: impl FnOnce(&mut Vec<u8>)) -> Segment {
    let tail = payload.map_or(0, |p| p.len());
    let mut head = Vec::with_capacity(4 + len - tail);
    put_u32(&mut head, len as u32);
    fill(&mut head);
    debug_assert_eq!(head.len() + tail, 4 + len, "payload length mismatch");
    let mut seg = Segment::from(head);
    if let Some(p) = payload {
        seg.push(p.clone());
    }
    seg
}

// The encoders below borrow what they send, so the storage tier builds
// a frame without copying its payload. `Frame::encode` is made of them.

/// A `Request` frame asking for the blob at `key`.
pub(crate) fn encode_get(req_id: u64, key: &str, ctx: Option<SpanContext>) -> Segment {
    frame(1 + 8 + CTX_LEN + 1 + bytes_len(key.as_bytes()), None, |p| {
        p.push(1);
        put_u64(p, req_id);
        put_ctx(p, ctx);
        p.push(1);
        put_bytes(p, key.as_bytes());
    })
}

/// A `Request` frame carrying the write `op`.
pub(crate) fn encode_write_request(req_id: u64, op: &WriteOp, ctx: Option<SpanContext>) -> Segment {
    frame(1 + 8 + CTX_LEN + 1 + write_len(op), op.data(), |p| {
        p.push(1);
        put_u64(p, req_id);
        put_ctx(p, ctx);
        p.push(2);
        encode_write(p, op);
    })
}

/// A `Response` frame answering `req_id` with `value`.
pub(crate) fn encode_response(req_id: u64, value: Option<&Bytes>) -> Segment {
    frame(1 + 8 + 1 + value.map_or(0, |v| bytes_len(v)), value, |p| {
        p.push(2);
        put_u64(p, req_id);
        match value {
            Some(v) => {
                p.push(1);
                put_u32(p, v.len() as u32);
            }
            None => p.push(0),
        }
    })
}

/// An `Invalidate` frame for `key`.
pub(crate) fn encode_invalidate(key: &str) -> Segment {
    frame(1 + bytes_len(key.as_bytes()), None, |p| {
        p.push(3);
        put_bytes(p, key.as_bytes());
    })
}

/// A `Replicate` frame carrying `op` as sequence number `seq`.
pub(crate) fn encode_replicate(seq: u64, op: &WriteOp, ctx: Option<SpanContext>) -> Segment {
    frame(1 + 8 + CTX_LEN + write_len(op), op.data(), |p| {
        p.push(4);
        put_u64(p, seq);
        put_ctx(p, ctx);
        encode_write(p, op);
    })
}

/// An `Ack` frame for `seq`.
pub(crate) fn encode_ack(seq: u64) -> Segment {
    frame(1 + 8, None, |p| {
        p.push(5);
        put_u64(p, seq);
    })
}

fn decode_write(r: &mut Reader) -> Option<WriteOp> {
    match r.u8()? {
        1 => Some(WriteOp::Put {
            key: r.string()?,
            data: r.bytes()?,
        }),
        2 => Some(WriteOp::Delete { key: r.string()? }),
        _ => None,
    }
}

/// Decode the payload `r` is bounded to; `None` unless it is one
/// well-formed frame, exactly.
fn decode(r: &mut Reader) -> Option<Frame> {
    let frame = match r.u8()? {
        1 => {
            let req_id = r.u64()?;
            let ctx = read_ctx(r)?;
            let op = match r.u8()? {
                1 => RequestOp::Get { key: r.string()? },
                2 => RequestOp::Write(decode_write(r)?),
                _ => return None,
            };
            Frame::Request { req_id, op, ctx }
        }
        2 => {
            let req_id = r.u64()?;
            let value = match r.u8()? {
                0 => None,
                1 => Some(r.bytes()?),
                _ => return None,
            };
            Frame::Response { req_id, value }
        }
        3 => Frame::Invalidate { key: r.string()? },
        4 => {
            let seq = r.u64()?;
            let ctx = read_ctx(r)?;
            Frame::Replicate {
                seq,
                op: decode_write(r)?,
                ctx,
            }
        }
        5 => Frame::Ack { seq: r.u64()? },
        _ => return None,
    };
    (r.left == 0).then_some(frame)
}

impl Frame {
    /// The complete length-prefixed frame as a segment: the header,
    /// then any payload as a shared part of its own.
    pub(crate) fn segment(&self) -> Segment {
        match self {
            Frame::Request {
                req_id,
                op: RequestOp::Get { key },
                ctx,
            } => encode_get(*req_id, key, *ctx),
            Frame::Request {
                req_id,
                op: RequestOp::Write(w),
                ctx,
            } => encode_write_request(*req_id, w, *ctx),
            Frame::Response { req_id, value } => encode_response(*req_id, value.as_ref()),
            Frame::Invalidate { key } => encode_invalidate(key),
            Frame::Replicate { seq, op, ctx } => encode_replicate(*seq, op, *ctx),
            Frame::Ack { seq } => encode_ack(*seq),
        }
    }

    /// Serialize to a complete length-prefixed frame, in one buffer.
    pub fn encode(&self) -> Vec<u8> {
        self.segment().to_vec()
    }

    /// Parse one payload (the bytes after the length prefix). A
    /// payload in the frame comes back as a copy.
    pub fn decode_payload(payload: &[u8]) -> Option<Frame> {
        let parts = VecDeque::from([Bytes::copy_from_slice(payload)]);
        decode(&mut Reader::new(&parts, payload.len()))
    }
}

/// Reassembles frames from a fragmented byte stream.
#[derive(Default)]
pub struct FrameBuffer {
    /// Delivered bytes not decoded yet, in the parts they arrived in:
    /// the start of a frame whose remainder has not arrived.
    parts: VecDeque<Bytes>,
    /// Total bytes across `parts`.
    len: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Feed one delivery; returns every complete frame now available.
    /// Malformed payloads are dropped (the length prefix still bounds
    /// them, so the stream stays in sync).
    ///
    /// Headers are read through a cursor over the parts. A payload is
    /// a slice of the part it arrived in; only one that spans parts,
    /// as after a delivery split inside it, is copied.
    pub fn push(&mut self, data: impl Into<Segment>) -> Vec<Frame> {
        for part in data.into() {
            self.len += part.len();
            self.parts.push_back(part);
        }
        let mut frames = Vec::new();
        loop {
            let mut r = Reader::new(&self.parts, self.len);
            let Some(n) = r.u32().map(|n| n as usize).filter(|&n| n <= r.left) else {
                return frames;
            };
            r.left = n;
            frames.extend(decode(&mut r));
            self.consume(4 + n);
        }
    }

    /// Drop the first `n` buffered bytes.
    fn consume(&mut self, mut n: usize) {
        self.len -= n;
        while n > 0 {
            let front = self.parts.front_mut().expect("consume within the buffer");
            if n < front.len() {
                *front = front.slice(n..);
                return;
            }
            n -= front.len();
            self.parts.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Request {
                req_id: 7,
                op: RequestOp::Get { key: "/a".into() },
                ctx: None,
            },
            Frame::Request {
                req_id: 8,
                op: RequestOp::Write(WriteOp::Put {
                    key: "/b".into(),
                    data: b"blob".to_vec().into(),
                }),
                ctx: Some(SpanContext {
                    trace_id: 0xDEAD,
                    span_id: 0xBEEF,
                }),
            },
            Frame::Response {
                req_id: 7,
                value: Some(b"x".to_vec().into()),
            },
            Frame::Response {
                req_id: 8,
                value: None,
            },
            Frame::Invalidate { key: "/b".into() },
            Frame::Replicate {
                seq: 3,
                op: WriteOp::Delete { key: "/b".into() },
                ctx: Some(SpanContext {
                    trace_id: 1,
                    span_id: 2,
                }),
            },
            Frame::Replicate {
                seq: 4,
                op: WriteOp::Delete { key: "/c".into() },
                ctx: None,
            },
            Frame::Ack { seq: 3 },
        ]
    }

    /// Enabling tracing must not change wire lengths (and therefore
    /// simulated transfer delays): the context field is fixed-width.
    #[test]
    fn ctx_presence_does_not_change_frame_length() {
        let bare = Frame::Request {
            req_id: 1,
            op: RequestOp::Get { key: "/k".into() },
            ctx: None,
        };
        let traced = Frame::Request {
            req_id: 1,
            op: RequestOp::Get { key: "/k".into() },
            ctx: Some(SpanContext {
                trace_id: u64::MAX,
                span_id: 42,
            }),
        };
        assert_eq!(bare.encode().len(), traced.encode().len());
    }

    #[test]
    fn frames_round_trip() {
        for f in samples() {
            let enc = f.encode();
            let got = Frame::decode_payload(&enc[4..]).unwrap();
            assert_eq!(got, f);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A multi-KiB payload, so frame lengths cross a byte of the
    /// little-endian length fields.
    fn big_data() -> Vec<u8> {
        (0..5000u32).map(|i| (i % 251) as u8).collect()
    }

    /// Frames carrying [`big_data`], each with the hex of every byte
    /// before the payload (the payload itself follows verbatim).
    fn big_samples() -> Vec<(Frame, &'static str)> {
        let put = WriteOp::Put {
            key: "/big".into(),
            data: big_data().into(),
        };
        vec![
            (
                Frame::Request {
                    req_id: 9,
                    op: RequestOp::Write(put.clone()),
                    ctx: None,
                },
                "b013000001090000000000000000000000000000000000000000000000000201040000002f62696788130000",
            ),
            (
                Frame::Replicate {
                    seq: 300,
                    op: put,
                    ctx: Some(SpanContext {
                        trace_id: 5,
                        span_id: 6,
                    }),
                },
                "af130000042c01000000000000010500000000000000060000000000000001040000002f62696788130000",
            ),
            (
                Frame::Response {
                    req_id: 10,
                    value: Some(big_data().into()),
                },
                "96130000020a000000000000000188130000",
            ),
        ]
    }

    /// The wire layout is pinned byte for byte: frame lengths set
    /// simulated transfer delays, and a layout change made on both the
    /// encode and the decode side would still round-trip.
    #[test]
    fn wire_bytes_are_pinned() {
        let want = [
            "21000000010700000000000000000000000000000000000000000000000001020000002f61",
            "2a00000001080000000000000001adde000000000000efbe0000000000000201020000002f6204000000626c6f62",
            "0f000000020700000000000000010100000078",
            "0a00000002080000000000000000",
            "0700000003020000002f62",
            "21000000040300000000000000010100000000000000020000000000000002020000002f62",
            "21000000040400000000000000000000000000000000000000000000000002020000002f63",
            "09000000050300000000000000",
        ];
        assert_eq!(samples().len(), want.len());
        for (f, want) in samples().iter().zip(want) {
            assert_eq!(hex(&f.encode()), want, "{f:?}");
            assert_eq!(borrowed_encode(f), f.encode(), "{f:?}");
        }
        for (f, head) in big_samples() {
            let enc = f.encode();
            let (prefix, payload) = enc.split_at(enc.len() - big_data().len());
            assert_eq!(hex(prefix), head);
            assert_eq!(payload, big_data());
            assert_eq!(borrowed_encode(&f), enc);
        }
    }

    /// `f` through the crate's borrowing encoders, as the client and
    /// the cluster build their frames, in one buffer.
    fn borrowed_encode(f: &Frame) -> Vec<u8> {
        let seg = match f {
            Frame::Request {
                req_id,
                op: RequestOp::Get { key },
                ctx,
            } => encode_get(*req_id, key, *ctx),
            Frame::Request {
                req_id,
                op: RequestOp::Write(w),
                ctx,
            } => encode_write_request(*req_id, w, *ctx),
            Frame::Response { req_id, value } => encode_response(*req_id, value.as_ref()),
            Frame::Invalidate { key } => encode_invalidate(key),
            Frame::Replicate { seq, op, ctx } => encode_replicate(*seq, op, *ctx),
            Frame::Ack { seq } => encode_ack(*seq),
        };
        seg.to_vec()
    }

    /// The stored payload a frame carries, if any.
    fn payload(f: &Frame) -> Option<&Bytes> {
        match f {
            Frame::Request {
                op: RequestOp::Write(op),
                ..
            }
            | Frame::Replicate { op, .. } => op.data(),
            Frame::Response { value, .. } => value.as_ref(),
            _ => None,
        }
    }

    /// The encoders send a payload as a part of its own, after the
    /// frame's header.
    #[test]
    fn encoders_send_the_payload_as_its_own_part() {
        for f in samples().iter().chain(
            &big_samples()
                .into_iter()
                .map(|(f, _)| f)
                .collect::<Vec<_>>(),
        ) {
            let seg = f.segment();
            match payload(f) {
                Some(p) => {
                    assert_eq!(seg.parts().len(), 2, "{f:?}");
                    assert!(Bytes::ptr_eq(&seg.parts()[1], p), "{f:?}");
                }
                None => assert_eq!(seg.parts().len(), 1, "{f:?}"),
            }
        }
    }

    #[test]
    fn buffer_reassembles_fragmented_stream() {
        let all: Vec<u8> = samples().iter().flat_map(|f| f.encode()).collect();
        // Deliver the stream one byte at a time: worst-case framing.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for &b in &all {
            got.extend(fb.push(vec![b]));
        }
        assert_eq!(got, samples());
        // And in one burst.
        let mut fb = FrameBuffer::new();
        assert_eq!(fb.push(all), samples());
    }

    /// Every way to cut a stream in two (and many in three) yields the
    /// same frames, whether a cut falls in a length prefix, inside a
    /// payload, or on a frame boundary. Cut as the encoders send it,
    /// header and payload in parts of their own, the stream also yields
    /// each payload as the sender's allocation, unless the cut fell
    /// inside it.
    #[test]
    fn buffer_reassembles_across_every_cut() {
        let mut frames = samples();
        frames.extend(big_samples().into_iter().map(|(f, _)| f));
        let all: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        for cut in 0..=all.len() {
            let mut fb = FrameBuffer::new();
            let mut got = fb.push(all[..cut].to_vec());
            got.extend(fb.push(all[cut..].to_vec()));
            assert_eq!(got, frames, "cut at {cut}");
        }
        for a in (0..all.len()).step_by(97) {
            for b in (a..all.len()).step_by(89) {
                let mut fb = FrameBuffer::new();
                let mut got = fb.push(all[..a].to_vec());
                got.extend(fb.push(all[a..b].to_vec()));
                got.extend(fb.push(all[b..].to_vec()));
                assert_eq!(got, frames, "cuts at {a} and {b}");
            }
        }

        let stream: Segment = frames.iter().flat_map(Frame::segment).collect();
        assert_eq!(stream.to_vec(), all);
        // Each frame's payload, sent, and the stream offsets it spans:
        // a payload is the last field of its frame.
        let mut end = 0;
        let sent: Vec<Option<(&Bytes, usize, usize)>> = frames
            .iter()
            .map(|f| {
                end += f.encode().len();
                payload(f).map(|p| (p, end - p.len(), end))
            })
            .collect();
        for cut in 0..=all.len() {
            let (a, b) = stream.clone().split_at(cut);
            let mut fb = FrameBuffer::new();
            let mut got = fb.push(a);
            got.extend(fb.push(b));
            assert_eq!(got, frames, "segment cut at {cut}");
            for (g, s) in got.iter().zip(&sent) {
                if let (Some(p), Some((sent, start, end))) = (payload(g), s) {
                    let spans = *start < cut && cut < *end;
                    assert_eq!(Bytes::ptr_eq(p, sent), !spans, "cut at {cut}: {g:?}");
                }
            }
        }
    }

    #[test]
    fn malformed_payload_is_skipped_without_desync() {
        let mut stream = vec![2, 0, 0, 0, 99, 99]; // bad tag, valid length
                                                   // A response whose value claims 100 bytes its frame lacks.
        stream.extend([14, 0, 0, 0, 2, 7, 0, 0, 0, 0, 0, 0, 0, 1, 100, 0, 0, 0]);
        stream.extend(Frame::Ack { seq: 1 }.encode());
        let mut fb = FrameBuffer::new();
        assert_eq!(fb.push(stream), vec![Frame::Ack { seq: 1 }]);
    }
}
