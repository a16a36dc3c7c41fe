//! The `locert-serve` wire protocol: length-prefixed binary frames.
//!
//! Every frame is a `u32` little-endian payload length followed by the
//! payload. Payloads open with a magic tag, a protocol version, and an
//! opcode; all integers are little-endian. One TCP connection carries
//! any number of frames; the server answers each request frame with
//! exactly one response frame, in order.
//!
//! ```text
//! frame    := len:u32  payload                  (len = payload bytes)
//! payload  := "LSRV" ver:u8 opcode:u8 body
//!
//! opcode 0x01 (request batch)   body := count:u16 request*count
//! opcode 0x02 (shutdown/drain)  body := ε
//! opcode 0x81 (response batch)  body := count:u16 response*count
//! opcode 0x82 (shutdown ack)    body := ε
//! opcode 0x7f (conn error)      body := code:u8 msglen:u16 msg
//!
//! request  := mode:u8 idlen:u16 scheme-id
//!             n:u32 m:u32 (u:u32 v:u32)*m
//!             inputs?:u8 [wlen:u32 letter:u32*wlen]
//!             certs?:u8  [count:u32 cert*count]
//! cert     := len_bits:u32 byte*ceil(len_bits/8)
//! response := status:u8
//!             status 0: accepted:u8 cache:u8 rejecting:u32
//!                       certs?:u8 [count:u32 cert*count]
//!             else:     msglen:u16 msg
//! ```
//!
//! Malformed *framing* (bad magic, truncated body, oversize length) is
//! a connection-level error: the server answers one `0x7f` frame and
//! closes. Malformed *requests* (unknown scheme, oversize graph,
//! admission rejection, …) are per-response typed status codes — the
//! connection stays usable. [`ErrorCode`] is the closed catalogue of
//! both; codes are stable wire values with kebab-case names mirroring
//! `locert-core`'s `RejectReason::code` convention.

use locert_core::bits::Certificate;
use std::io::{self, Read, Write};

/// Protocol magic: `"LSRV"` as little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"LSRV");
/// Protocol version spoken by this build.
pub const VERSION: u8 = 1;
/// Hard cap on a frame payload, bytes. Large enough for a graph at the
/// `locert_graph::io` caps; anything larger is a framing error before
/// any allocation keyed on the length.
pub const MAX_FRAME: usize = 1 << 28;
/// Hard cap on requests per batch frame.
pub const MAX_BATCH: usize = 1024;

/// Request opcodes.
pub const OP_REQUEST: u8 = 0x01;
/// Graceful-drain opcode: stop accepting, finish in-flight, ack, exit.
pub const OP_SHUTDOWN: u8 = 0x02;
/// Response opcodes.
pub const OP_RESPONSE: u8 = 0x81;
/// Shutdown acknowledgement (drain completed for this connection).
pub const OP_SHUTDOWN_ACK: u8 = 0x82;
/// Connection-level error; the server closes after sending it.
pub const OP_CONN_ERROR: u8 = 0x7f;

/// The closed catalogue of typed wire errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The payload did not parse (framing or body structure).
    MalformedFrame = 1,
    /// Declared frame length exceeds [`MAX_FRAME`].
    FrameTooLarge = 2,
    /// Magic or version mismatch.
    UnsupportedVersion = 3,
    /// Structurally valid but semantically unusable request (empty
    /// batch, batch over [`MAX_BATCH`], verify without certificates,
    /// certificate count != vertex count, unknown mode).
    BadRequest = 4,
    /// The scheme id is not in the shared catalogue.
    UnknownScheme = 5,
    /// Graph exceeds the `locert_graph::io` vertex/edge caps.
    GraphTooLarge = 6,
    /// Edges out of range or self-loops.
    BadGraph = 7,
    /// Per-scheme admission limit reached; retry later.
    Overloaded = 8,
    /// The prover refused: the graph does not satisfy the property.
    NotAYesInstance = 9,
    /// The prover needs a witness it could not compute at this scale.
    WitnessUnavailable = 10,
    /// The daemon is draining; no new work is admitted.
    ShuttingDown = 11,
}

impl ErrorCode {
    /// Stable kebab-case name (journals and reports key on it).
    pub fn code(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownScheme => "unknown-scheme",
            ErrorCode::GraphTooLarge => "graph-too-large",
            ErrorCode::BadGraph => "bad-graph",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::NotAYesInstance => "not-a-yes-instance",
            ErrorCode::WitnessUnavailable => "witness-unavailable",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    /// Parses a wire byte back into the catalogue.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::MalformedFrame,
            2 => ErrorCode::FrameTooLarge,
            3 => ErrorCode::UnsupportedVersion,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::UnknownScheme,
            6 => ErrorCode::GraphTooLarge,
            7 => ErrorCode::BadGraph,
            8 => ErrorCode::Overloaded,
            9 => ErrorCode::NotAYesInstance,
            10 => ErrorCode::WitnessUnavailable,
            11 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// Request mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Run the prover (cache-assisted); return certificates.
    Prove,
    /// Verify client-supplied certificates; return the verdict.
    Verify,
    /// Prove (cache-assisted) then verify; return verdict + certificates.
    Roundtrip,
}

impl Mode {
    /// Stable kebab-case name.
    pub fn code(self) -> &'static str {
        match self {
            Mode::Prove => "prove",
            Mode::Verify => "verify",
            Mode::Roundtrip => "roundtrip",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Mode::Prove => 1,
            Mode::Verify => 2,
            Mode::Roundtrip => 3,
        }
    }

    fn from_u8(b: u8) -> Option<Mode> {
        Some(match b {
            1 => Mode::Prove,
            2 => Mode::Verify,
            3 => Mode::Roundtrip,
            _ => return None,
        })
    }
}

/// How the certificate cache answered (or was skipped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// The request never consulted the cache (verify mode, errors).
    Bypass,
    /// Looked up, absent; the prover ran and the result was inserted.
    Miss,
    /// Served from the cache.
    Hit,
}

impl CacheDisposition {
    /// Stable kebab-case name.
    pub fn code(self) -> &'static str {
        match self {
            CacheDisposition::Bypass => "bypass",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Hit => "hit",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            CacheDisposition::Bypass => 0,
            CacheDisposition::Miss => 1,
            CacheDisposition::Hit => 2,
        }
    }

    fn from_u8(b: u8) -> Option<CacheDisposition> {
        Some(match b {
            0 => CacheDisposition::Bypass,
            1 => CacheDisposition::Miss,
            2 => CacheDisposition::Hit,
            _ => return None,
        })
    }
}

/// One certification request. The graph travels as a raw edge list; the
/// server validates it against the `locert_graph::io` caps and reports
/// violations as typed errors (decoding never allocates proportionally
/// to a hostile declared size).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What to do.
    pub mode: Mode,
    /// Stable scheme id from `locert_core::catalogue`.
    pub scheme: String,
    /// Declared vertex count.
    pub n: u32,
    /// Edge list (endpoints are vertex indices below `n`).
    pub edges: Vec<(u32, u32)>,
    /// Optional per-vertex input word (word-reading schemes).
    pub inputs: Option<Vec<u32>>,
    /// Certificates to verify (required for [`Mode::Verify`]).
    pub certs: Option<Vec<Certificate>>,
}

/// One response, paired positionally with its request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request was served.
    Ok {
        /// Whether every vertex accepted (prove mode: whether the
        /// prover succeeded, always true here).
        accepted: bool,
        /// Cache disposition of the prove step.
        cache: CacheDisposition,
        /// Number of rejecting vertices (0 when accepted).
        rejecting: u32,
        /// Certificates (prove/roundtrip modes).
        certs: Option<Vec<Certificate>>,
    },
    /// The request failed with a typed code.
    Err {
        /// The typed error.
        code: ErrorCode,
        /// Human-readable detail (never needed to interpret the error).
        message: String,
    },
}

/// A decoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A batch of requests (opcode 0x01).
    Requests(Vec<Request>),
    /// Graceful-drain command (opcode 0x02).
    Shutdown,
    /// A batch of responses (opcode 0x81).
    Responses(Vec<Response>),
    /// Drain acknowledgement (opcode 0x82).
    ShutdownAck,
    /// Connection-level error (opcode 0x7f).
    ConnError(ErrorCode, String),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, x: u16) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_header(out: &mut Vec<u8>, opcode: u8) {
    put_u32(out, MAGIC);
    out.push(VERSION);
    out.push(opcode);
}

fn put_certs(out: &mut Vec<u8>, certs: &Option<Vec<Certificate>>) {
    match certs {
        None => out.push(0),
        Some(list) => {
            out.push(1);
            put_u32(out, list.len() as u32);
            for c in list {
                put_u32(out, c.len_bits() as u32);
                out.extend_from_slice(c.as_bytes());
            }
        }
    }
}

/// Encodes a request batch payload.
pub fn encode_requests(requests: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, OP_REQUEST);
    put_u16(&mut out, requests.len() as u16);
    for r in requests {
        out.push(r.mode.to_u8());
        put_u16(&mut out, r.scheme.len() as u16);
        out.extend_from_slice(r.scheme.as_bytes());
        put_u32(&mut out, r.n);
        put_u32(&mut out, r.edges.len() as u32);
        for &(u, v) in &r.edges {
            put_u32(&mut out, u);
            put_u32(&mut out, v);
        }
        match &r.inputs {
            None => out.push(0),
            Some(word) => {
                out.push(1);
                put_u32(&mut out, word.len() as u32);
                for &letter in word {
                    put_u32(&mut out, letter);
                }
            }
        }
        put_certs(&mut out, &r.certs);
    }
    out
}

/// Encodes the graceful-drain payload.
pub fn encode_shutdown() -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, OP_SHUTDOWN);
    out
}

/// Encodes the drain acknowledgement payload.
pub fn encode_shutdown_ack() -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, OP_SHUTDOWN_ACK);
    out
}

/// Encodes a response batch payload.
pub fn encode_responses(responses: &[Response]) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, OP_RESPONSE);
    put_u16(&mut out, responses.len() as u16);
    for r in responses {
        match r {
            Response::Ok {
                accepted,
                cache,
                rejecting,
                certs,
            } => {
                out.push(0);
                out.push(u8::from(*accepted));
                out.push(cache.to_u8());
                put_u32(&mut out, *rejecting);
                put_certs(&mut out, certs);
            }
            Response::Err { code, message } => {
                out.push(*code as u8);
                let msg = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
                put_u16(&mut out, msg.len() as u16);
                out.extend_from_slice(msg);
            }
        }
    }
    out
}

/// Encodes a connection-level error payload.
pub fn encode_conn_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, OP_CONN_ERROR);
    out.push(code as u8);
    let msg = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
    put_u16(&mut out, msg.len() as u16);
    out.extend_from_slice(msg);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked cursor over a payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        if self.remaining() < len {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn read_certs(r: &mut Reader<'_>) -> Option<Option<Vec<Certificate>>> {
    match r.u8()? {
        0 => Some(None),
        1 => {
            let count = r.u32()? as usize;
            // Each certificate costs at least 4 bytes on the wire; a
            // hostile count cannot out-allocate the frame it rode in on.
            if count > r.remaining() / 4 + 1 {
                return None;
            }
            let mut certs = Vec::with_capacity(count);
            for _ in 0..count {
                let len_bits = r.u32()? as usize;
                let bytes = r.take(len_bits.div_ceil(8))?.to_vec();
                certs.push(Certificate::from_bytes(bytes, len_bits)?);
            }
            Some(Some(certs))
        }
        _ => None,
    }
}

fn read_request(r: &mut Reader<'_>) -> Option<Request> {
    let mode = Mode::from_u8(r.u8()?)?;
    let idlen = r.u16()? as usize;
    let scheme = std::str::from_utf8(r.take(idlen)?).ok()?.to_string();
    let n = r.u32()?;
    let m = r.u32()? as usize;
    if m > r.remaining() / 8 {
        return None; // edges cost 8 bytes each; cap by what is present
    }
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        edges.push((r.u32()?, r.u32()?));
    }
    let inputs = match r.u8()? {
        0 => None,
        1 => {
            let wlen = r.u32()? as usize;
            if wlen > r.remaining() / 4 {
                return None;
            }
            let mut word = Vec::with_capacity(wlen);
            for _ in 0..wlen {
                word.push(r.u32()?);
            }
            Some(word)
        }
        _ => return None,
    };
    let certs = read_certs(r)?;
    Some(Request {
        mode,
        scheme,
        n,
        edges,
        inputs,
        certs,
    })
}

fn read_response(r: &mut Reader<'_>) -> Option<Response> {
    match r.u8()? {
        0 => {
            let accepted = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let cache = CacheDisposition::from_u8(r.u8()?)?;
            let rejecting = r.u32()?;
            let certs = read_certs(r)?;
            Some(Response::Ok {
                accepted,
                cache,
                rejecting,
                certs,
            })
        }
        code => {
            let code = ErrorCode::from_u8(code)?;
            let msglen = r.u16()? as usize;
            let message = String::from_utf8_lossy(r.take(msglen)?).into_owned();
            Some(Response::Err { code, message })
        }
    }
}

/// Decodes one payload. `Err` carries the connection-level error to
/// send back before closing.
pub fn decode(payload: &[u8]) -> Result<Message, (ErrorCode, String)> {
    let malformed = |what: &str| (ErrorCode::MalformedFrame, format!("malformed {what}"));
    let mut r = Reader::new(payload);
    let magic = r.u32().ok_or_else(|| malformed("header"))?;
    if magic != MAGIC {
        return Err((ErrorCode::UnsupportedVersion, "bad magic".to_string()));
    }
    let version = r.u8().ok_or_else(|| malformed("header"))?;
    if version != VERSION {
        return Err((
            ErrorCode::UnsupportedVersion,
            format!("version {version}, this build speaks {VERSION}"),
        ));
    }
    let opcode = r.u8().ok_or_else(|| malformed("header"))?;
    let msg = match opcode {
        OP_REQUEST => {
            let count = r.u16().ok_or_else(|| malformed("batch count"))? as usize;
            if count == 0 {
                return Err((ErrorCode::BadRequest, "empty batch".to_string()));
            }
            if count > MAX_BATCH {
                return Err((
                    ErrorCode::BadRequest,
                    format!("batch of {count}, cap is {MAX_BATCH}"),
                ));
            }
            let mut requests = Vec::with_capacity(count);
            for i in 0..count {
                requests
                    .push(read_request(&mut r).ok_or_else(|| malformed(&format!("request {i}")))?);
            }
            Message::Requests(requests)
        }
        OP_SHUTDOWN => Message::Shutdown,
        OP_RESPONSE => {
            let count = r.u16().ok_or_else(|| malformed("batch count"))? as usize;
            let mut responses = Vec::with_capacity(count.min(MAX_BATCH));
            for i in 0..count {
                responses.push(
                    read_response(&mut r).ok_or_else(|| malformed(&format!("response {i}")))?,
                );
            }
            Message::Responses(responses)
        }
        OP_SHUTDOWN_ACK => Message::ShutdownAck,
        OP_CONN_ERROR => {
            let code = r
                .u8()
                .and_then(ErrorCode::from_u8)
                .ok_or_else(|| malformed("error code"))?;
            let msglen = r.u16().ok_or_else(|| malformed("error message"))? as usize;
            let message =
                String::from_utf8_lossy(r.take(msglen).ok_or_else(|| malformed("error message"))?)
                    .into_owned();
            Message::ConnError(code, message)
        }
        other => {
            return Err((
                ErrorCode::MalformedFrame,
                format!("unknown opcode {other:#x}"),
            ))
        }
    };
    if !r.done() {
        return Err((
            ErrorCode::MalformedFrame,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(msg)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one frame (length prefix + payload) as a single write and
/// flushes.
///
/// Through a `BufWriter`, a payload larger than its buffer would
/// otherwise leave as a second write behind the 4-byte prefix, and on a
/// TCP stream Nagle's algorithm then holds it until the peer's delayed
/// ACK, about 40 ms.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean EOF before a length
/// prefix.
///
/// # Errors
///
/// `InvalidData` when the declared length exceeds [`MAX_FRAME`] (the
/// error message carries the [`ErrorCode::FrameTooLarge`] code);
/// `UnexpectedEof` when the stream dies mid-frame; otherwise the
/// underlying read error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    FrameReader::new().read_frame(r)
}

/// Resumable frame reader for sockets with a read timeout.
///
/// [`read_frame`] is correct on blocking streams, but on a socket with a
/// read timeout a `WouldBlock`/`TimedOut` return discards any bytes of
/// the length prefix or payload already consumed, desynchronizing the
/// framing for slow writers. `FrameReader` persists the partial-read
/// state across calls: a timeout mid-frame leaves the prefix and payload
/// progress buffered, and the next [`FrameReader::read_frame`] resumes
/// the same frame where it stopped. The server keeps one per connection
/// so its drain-poll timeout can fire at any point in a frame without
/// corrupting the stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    len_buf: [u8; 4],
    len_filled: usize,
    /// Allocated once the prefix completes; holds the payload in flight.
    payload: Option<Vec<u8>>,
    payload_filled: usize,
}

impl FrameReader {
    /// A reader with no frame in flight.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Reads one frame, resuming a partially-read one if present.
    /// Returns `Ok(None)` on clean EOF before a length prefix.
    ///
    /// # Errors
    ///
    /// As [`read_frame`]; additionally, on `WouldBlock`/`TimedOut` the
    /// partial state is retained and a subsequent call continues the
    /// same frame.
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Vec<u8>>> {
        // A clean EOF before any length byte is a closed connection, not
        // an error; EOF mid-prefix is malformed.
        while self.payload.is_none() {
            match r.read(&mut self.len_buf[self.len_filled..]) {
                Ok(0) if self.len_filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame length",
                    ))
                }
                Ok(k) => {
                    self.len_filled += k;
                    if self.len_filled == 4 {
                        let len = u32::from_le_bytes(self.len_buf) as usize;
                        if len > MAX_FRAME {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                ErrorCode::FrameTooLarge.code(),
                            ));
                        }
                        self.payload = Some(vec![0u8; len]);
                        self.payload_filled = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let payload = self.payload.as_mut().expect("payload in flight");
        while self.payload_filled < payload.len() {
            match r.read(&mut payload[self.payload_filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame payload",
                    ))
                }
                Ok(k) => self.payload_filled += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.len_filled = 0;
        self.payload_filled = 0;
        Ok(self.payload.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cert(bits: &[bool]) -> Certificate {
        let mut w = locert_core::bits::BitWriter::new();
        for &b in bits {
            w.write_bit(b);
        }
        w.finish()
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request {
                mode: Mode::Roundtrip,
                scheme: "spanning-tree".into(),
                n: 4,
                edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
                inputs: None,
                certs: None,
            },
            Request {
                mode: Mode::Verify,
                scheme: "word-no-11".into(),
                n: 2,
                edges: vec![(0, 1)],
                inputs: Some(vec![0, 1]),
                certs: Some(vec![
                    sample_cert(&[true, false, true]),
                    Certificate::empty(),
                ]),
            },
        ]
    }

    #[test]
    fn request_batch_round_trips() {
        let requests = sample_requests();
        let payload = encode_requests(&requests);
        assert_eq!(decode(&payload), Ok(Message::Requests(requests)));
    }

    #[test]
    fn response_batch_round_trips() {
        let responses = vec![
            Response::Ok {
                accepted: true,
                cache: CacheDisposition::Hit,
                rejecting: 0,
                certs: Some(vec![sample_cert(&[true, true])]),
            },
            Response::Ok {
                accepted: false,
                cache: CacheDisposition::Bypass,
                rejecting: 3,
                certs: None,
            },
            Response::Err {
                code: ErrorCode::UnknownScheme,
                message: "no scheme \"nope\"".into(),
            },
        ];
        let payload = encode_responses(&responses);
        assert_eq!(decode(&payload), Ok(Message::Responses(responses)));
    }

    #[test]
    fn control_frames_round_trip() {
        assert_eq!(decode(&encode_shutdown()), Ok(Message::Shutdown));
        assert_eq!(decode(&encode_shutdown_ack()), Ok(Message::ShutdownAck));
        assert_eq!(
            decode(&encode_conn_error(ErrorCode::FrameTooLarge, "727 MiB")),
            Ok(Message::ConnError(
                ErrorCode::FrameTooLarge,
                "727 MiB".into()
            ))
        );
    }

    #[test]
    fn malformed_payloads_are_typed_never_panics() {
        // Garbage, truncations of a valid frame, bad magic/version/opcode,
        // trailing bytes: every one a typed Err, none a panic.
        let valid = encode_requests(&sample_requests());
        for cut in 0..valid.len() {
            let _ = decode(&valid[..cut]);
        }
        assert!(decode(b"garbage-bytes").is_err());
        assert_eq!(decode(&[]).unwrap_err().0, ErrorCode::MalformedFrame);
        let mut bad_magic = valid.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            decode(&bad_magic).unwrap_err().0,
            ErrorCode::UnsupportedVersion
        );
        let mut bad_version = valid.clone();
        bad_version[4] = 99;
        assert_eq!(
            decode(&bad_version).unwrap_err().0,
            ErrorCode::UnsupportedVersion
        );
        let mut bad_opcode = valid.clone();
        bad_opcode[5] = 0x55;
        assert_eq!(
            decode(&bad_opcode).unwrap_err().0,
            ErrorCode::MalformedFrame
        );
        let mut trailing = valid.clone();
        trailing.push(0);
        assert_eq!(decode(&trailing).unwrap_err().0, ErrorCode::MalformedFrame);
    }

    #[test]
    fn empty_and_oversize_batches_are_bad_requests() {
        let mut empty = Vec::new();
        put_header(&mut empty, OP_REQUEST);
        put_u16(&mut empty, 0);
        assert_eq!(decode(&empty).unwrap_err().0, ErrorCode::BadRequest);
        let mut oversize = Vec::new();
        put_header(&mut oversize, OP_REQUEST);
        put_u16(&mut oversize, (MAX_BATCH + 1) as u16);
        assert_eq!(decode(&oversize).unwrap_err().0, ErrorCode::BadRequest);
    }

    #[test]
    fn hostile_counts_cannot_outallocate_the_frame() {
        // m = u32::MAX with a tiny frame: decode must fail fast, not
        // reserve gigabytes.
        let mut payload = Vec::new();
        put_header(&mut payload, OP_REQUEST);
        put_u16(&mut payload, 1);
        payload.push(1); // mode = prove
        put_u16(&mut payload, 1);
        payload.push(b'x');
        put_u32(&mut payload, 3); // n
        put_u32(&mut payload, u32::MAX); // m, lying
        assert_eq!(decode(&payload).unwrap_err().0, ErrorCode::MalformedFrame);
    }

    #[test]
    fn frames_round_trip_and_cap_length() {
        let payload = encode_shutdown();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut cursor = io::Cursor::new(huge.to_vec());
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), ErrorCode::FrameTooLarge.code());
    }

    #[test]
    fn large_frame_leaves_a_buffered_writer_in_one_write() {
        /// Counts the writes that reach the underlying stream.
        struct Counting {
            writes: usize,
            bytes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = io::BufWriter::new(Counting {
            writes: 0,
            bytes: 0,
        });
        write_frame(&mut w, &vec![7u8; 64 * 1024]).unwrap();
        let inner = w.get_ref();
        assert_eq!(inner.writes, 1);
        assert_eq!(inner.bytes, 4 + 64 * 1024);
    }

    #[test]
    fn error_codes_are_stable_and_invertible() {
        for b in 0..=255u8 {
            if let Some(code) = ErrorCode::from_u8(b) {
                assert_eq!(code as u8, b);
                assert!(!code.code().is_empty());
            }
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(12), None);
    }
}
