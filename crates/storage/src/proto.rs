//! The replication wire protocol.
//!
//! All storage traffic — client requests, primary→backup replication,
//! acks, and cache invalidation pushes — travels as length-prefixed
//! binary frames over `doppio-sockets` TCP connections. Frames are
//! self-delimiting (`u32` little-endian payload length, then a tagged
//! payload), so a [`FrameBuffer`] can reassemble them from arbitrarily
//! fragmented deliveries.
//!
//! `Request` and `Replicate` frames carry an optional causal
//! [`SpanContext`] so traces cross the storage wire. The context is
//! encoded at a fixed width (a flag byte plus two u64s, zeros when
//! absent), which keeps frame lengths — and therefore simulated
//! transfer delays — independent of whether tracing is enabled.

use doppio_trace::SpanContext;

/// A mutating operation: the unit of journaling and replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Store `data` at `key` (whole-blob overwrite).
    Put {
        /// Object key.
        key: String,
        /// Full contents.
        data: Vec<u8>,
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
    pub(crate) fn data(&self) -> Option<&[u8]> {
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
        value: Option<Vec<u8>>,
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

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        let b = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(b.to_vec())
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
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

fn encode_write(buf: &mut Vec<u8>, op: &WriteOp) {
    match op {
        WriteOp::Put { key, data } => {
            buf.push(1);
            put_bytes(buf, key.as_bytes());
            put_bytes(buf, data);
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

/// A complete frame whose payload `fill` writes in one pass into a
/// buffer allocated at its exact size, `len` payload bytes.
fn frame(len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + len);
    put_u32(&mut out, len as u32);
    fill(&mut out);
    debug_assert_eq!(out.len(), 4 + len, "payload length mismatch");
    out
}

// The encoders below borrow what they send, so the storage tier builds
// a frame without cloning its payload. `Frame::encode` is made of them.

/// A `Request` frame asking for the blob at `key`.
pub(crate) fn encode_get(req_id: u64, key: &str, ctx: Option<SpanContext>) -> Vec<u8> {
    frame(1 + 8 + CTX_LEN + 1 + bytes_len(key.as_bytes()), |p| {
        p.push(1);
        put_u64(p, req_id);
        put_ctx(p, ctx);
        p.push(1);
        put_bytes(p, key.as_bytes());
    })
}

/// A `Request` frame carrying the write `op`.
pub(crate) fn encode_write_request(req_id: u64, op: &WriteOp, ctx: Option<SpanContext>) -> Vec<u8> {
    frame(1 + 8 + CTX_LEN + 1 + write_len(op), |p| {
        p.push(1);
        put_u64(p, req_id);
        put_ctx(p, ctx);
        p.push(2);
        encode_write(p, op);
    })
}

/// A `Response` frame answering `req_id` with `value`.
pub(crate) fn encode_response(req_id: u64, value: Option<&[u8]>) -> Vec<u8> {
    frame(1 + 8 + 1 + value.map_or(0, bytes_len), |p| {
        p.push(2);
        put_u64(p, req_id);
        match value {
            Some(v) => {
                p.push(1);
                put_bytes(p, v);
            }
            None => p.push(0),
        }
    })
}

/// An `Invalidate` frame for `key`.
pub(crate) fn encode_invalidate(key: &str) -> Vec<u8> {
    frame(1 + bytes_len(key.as_bytes()), |p| {
        p.push(3);
        put_bytes(p, key.as_bytes());
    })
}

/// A `Replicate` frame carrying `op` as sequence number `seq`.
pub(crate) fn encode_replicate(seq: u64, op: &WriteOp, ctx: Option<SpanContext>) -> Vec<u8> {
    frame(1 + 8 + CTX_LEN + write_len(op), |p| {
        p.push(4);
        put_u64(p, seq);
        put_ctx(p, ctx);
        encode_write(p, op);
    })
}

fn encode_ack(seq: u64) -> Vec<u8> {
    frame(1 + 8, |p| {
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

impl Frame {
    /// Serialize to a complete length-prefixed frame.
    pub fn encode(&self) -> Vec<u8> {
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
            Frame::Response { req_id, value } => encode_response(*req_id, value.as_deref()),
            Frame::Invalidate { key } => encode_invalidate(key),
            Frame::Replicate { seq, op, ctx } => encode_replicate(*seq, op, *ctx),
            Frame::Ack { seq } => encode_ack(*seq),
        }
    }

    /// Parse one payload (the bytes after the length prefix).
    pub fn decode_payload(payload: &[u8]) -> Option<Frame> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let frame = match r.u8()? {
            1 => {
                let req_id = r.u64()?;
                let ctx = read_ctx(&mut r)?;
                let op = match r.u8()? {
                    1 => RequestOp::Get { key: r.string()? },
                    2 => RequestOp::Write(decode_write(&mut r)?),
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
                let ctx = read_ctx(&mut r)?;
                Frame::Replicate {
                    seq,
                    op: decode_write(&mut r)?,
                    ctx,
                }
            }
            5 => Frame::Ack { seq: r.u64()? },
            _ => return None,
        };
        (r.pos == payload.len()).then_some(frame)
    }
}

/// Total length (prefix included) of the frame `buf` starts with, once
/// its length prefix is complete.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let prefix: [u8; 4] = buf.get(..4)?.try_into().ok()?;
    Some(4 + u32::from_le_bytes(prefix) as usize)
}

/// Reassembles frames from a fragmented byte stream.
#[derive(Default)]
pub struct FrameBuffer {
    /// The start of a frame whose remainder has not arrived yet.
    partial: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Feed raw bytes; returns every complete frame now available.
    /// Malformed payloads are dropped (the length prefix still bounds
    /// them, so the stream stays in sync).
    ///
    /// Whole frames decode straight from `data`; only a frame split
    /// across deliveries is copied, into the partial-frame buffer.
    pub fn push(&mut self, mut data: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        while !self.partial.is_empty() {
            // Top the partial frame up to its length prefix, then to
            // its whole length.
            let want = frame_len(&self.partial).unwrap_or(4);
            let take = (want - self.partial.len()).min(data.len());
            self.partial.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.partial.len() < want {
                return frames;
            }
            if frame_len(&self.partial) == Some(self.partial.len()) {
                frames.extend(Frame::decode_payload(&self.partial[4..]));
                self.partial.clear();
            }
        }
        while let Some(n) = frame_len(data).filter(|&n| n <= data.len()) {
            frames.extend(Frame::decode_payload(&data[4..n]));
            data = &data[n..];
        }
        self.partial.extend_from_slice(data);
        frames
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
                    data: b"blob".to_vec(),
                }),
                ctx: Some(SpanContext {
                    trace_id: 0xDEAD,
                    span_id: 0xBEEF,
                }),
            },
            Frame::Response {
                req_id: 7,
                value: Some(b"x".to_vec()),
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
            data: big_data(),
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
                    value: Some(big_data()),
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
    /// the cluster build their frames.
    fn borrowed_encode(f: &Frame) -> Vec<u8> {
        match f {
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
            Frame::Response { req_id, value } => encode_response(*req_id, value.as_deref()),
            Frame::Invalidate { key } => encode_invalidate(key),
            Frame::Replicate { seq, op, ctx } => encode_replicate(*seq, op, *ctx),
            Frame::Ack { .. } => f.encode(),
        }
    }

    #[test]
    fn buffer_reassembles_fragmented_stream() {
        let all: Vec<u8> = samples().iter().flat_map(|f| f.encode()).collect();
        // Deliver the stream one byte at a time: worst-case framing.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for b in &all {
            got.extend(fb.push(std::slice::from_ref(b)));
        }
        assert_eq!(got, samples());
        // And in one burst.
        let mut fb = FrameBuffer::new();
        assert_eq!(fb.push(&all), samples());
    }

    /// Every way to cut a stream in two (and many in three) yields the
    /// same frames, whether a cut falls in a length prefix, inside a
    /// payload, or on a frame boundary.
    #[test]
    fn buffer_reassembles_across_every_cut() {
        let mut frames = samples();
        frames.extend(big_samples().into_iter().map(|(f, _)| f));
        let all: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        for cut in 0..=all.len() {
            let mut fb = FrameBuffer::new();
            let mut got = fb.push(&all[..cut]);
            got.extend(fb.push(&all[cut..]));
            assert_eq!(got, frames, "cut at {cut}");
        }
        for a in (0..all.len()).step_by(97) {
            for b in (a..all.len()).step_by(89) {
                let mut fb = FrameBuffer::new();
                let mut got = fb.push(&all[..a]);
                got.extend(fb.push(&all[a..b]));
                got.extend(fb.push(&all[b..]));
                assert_eq!(got, frames, "cuts at {a} and {b}");
            }
        }
    }

    #[test]
    fn malformed_payload_is_skipped_without_desync() {
        let mut stream = vec![2, 0, 0, 0, 99, 99]; // bad tag, valid length
        stream.extend(Frame::Ack { seq: 1 }.encode());
        let mut fb = FrameBuffer::new();
        assert_eq!(fb.push(&stream), vec![Frame::Ack { seq: 1 }]);
    }
}
