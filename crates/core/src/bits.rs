//! Bit-exact certificates.
//!
//! Certificate sizes are the paper's central measure, so certificates are
//! genuine bit strings: [`BitWriter`] packs fixed-width fields MSB-first
//! into a [`Certificate`], [`BitReader`] unpacks them. A scheme's size on
//! an instance is the maximum certificate length in bits.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Storage behind a [`Certificate`]: either bytes the certificate owns,
/// or a window into a contiguous arena shared with other certificates
/// (see `Assignment::new`, which packs per-vertex certificates into one
/// buffer). Views clone by bumping the arena's refcount; mutation paths
/// ([`Certificate::with_bit_flipped`]) copy out to `Owned` first, so a
/// view can never write into the shared arena.
#[derive(Clone)]
enum Repr {
    Owned(Vec<u8>),
    View {
        arena: Arc<[u8]>,
        byte_off: usize,
        byte_len: usize,
    },
}

/// An immutable bit string used as a vertex certificate.
///
/// Equality and hashing are content-based: an arena view and an owned
/// copy with the same bits compare equal and hash identically.
///
/// # Example
///
/// ```
/// use locert_core::bits::{BitWriter, BitReader};
///
/// let mut w = BitWriter::new();
/// w.write(0b101, 3);
/// w.write(7, 5);
/// let cert = w.finish();
/// assert_eq!(cert.len_bits(), 8);
/// let mut r = BitReader::new(&cert);
/// assert_eq!(r.read(3), Some(0b101));
/// assert_eq!(r.read(5), Some(7));
/// assert_eq!(r.read(1), None);
/// ```
#[derive(Clone)]
pub struct Certificate {
    repr: Repr,
    len_bits: usize,
}

impl Default for Certificate {
    fn default() -> Self {
        Certificate::const_empty()
    }
}

impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        self.len_bits == other.len_bits && self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Certificate {}

impl Hash for Certificate {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len_bits.hash(state);
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Certificate")
            .field("len_bits", &self.len_bits)
            .field("bytes", &self.as_bytes())
            .field("view", &matches!(self.repr, Repr::View { .. }))
            .finish()
    }
}

impl Certificate {
    /// The empty certificate (zero bits).
    pub fn empty() -> Self {
        Certificate::default()
    }

    /// The empty certificate as a `const` (usable in `static` items, e.g.
    /// the total fallback of `Assignment::cert`).
    pub const fn const_empty() -> Self {
        Certificate {
            repr: Repr::Owned(Vec::new()),
            len_bits: 0,
        }
    }

    /// A zero-copy view of `len_bits` bits stored at `byte_off` in a
    /// shared arena. The window must hold the bits in canonical form
    /// (trailing padding bits of the final byte zero).
    ///
    /// # Panics
    ///
    /// Panics if the window `byte_off..byte_off + ceil(len_bits / 8)`
    /// falls outside the arena.
    pub fn view(arena: Arc<[u8]>, byte_off: usize, len_bits: usize) -> Certificate {
        let byte_len = len_bits.div_ceil(8);
        assert!(
            byte_off + byte_len <= arena.len(),
            "certificate view out of arena bounds"
        );
        Certificate {
            repr: Repr::View {
                arena,
                byte_off,
                byte_len,
            },
            len_bits,
        }
    }

    /// Whether this certificate borrows a shared arena rather than
    /// owning its bytes.
    pub fn is_view(&self) -> bool {
        matches!(self.repr, Repr::View { .. })
    }

    /// For arena views, the `(byte_offset, byte_len)` window into the
    /// shared buffer; `None` for owned certificates.
    pub fn view_range(&self) -> Option<(usize, usize)> {
        match self.repr {
            Repr::Owned(_) => None,
            Repr::View {
                byte_off, byte_len, ..
            } => Some((byte_off, byte_len)),
        }
    }

    /// Length in bits.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Whether the certificate carries zero bits.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// The bit at `index` (MSB-first within each byte), or `None` past the
    /// end.
    pub fn try_bit(&self, index: usize) -> Option<bool> {
        if index >= self.len_bits {
            return None;
        }
        let byte = self.as_bytes()[index / 8];
        Some((byte >> (7 - index % 8)) & 1 == 1)
    }

    /// The bit at `index` (MSB-first within each byte). Total: out-of-range
    /// indices read as `0`, so adversarially malformed certificates can
    /// never panic a verification path — use [`Certificate::try_bit`] to
    /// distinguish padding from absence.
    pub fn bit(&self, index: usize) -> bool {
        self.try_bit(index).unwrap_or(false)
    }

    /// A copy with the bit at `index` flipped (for mutation attacks and
    /// fault injection). Total: an out-of-range `index` returns an
    /// unchanged copy. Copy-on-write: on an arena view this materializes
    /// an owned certificate — the shared arena is never written.
    pub fn with_bit_flipped(&self, index: usize) -> Certificate {
        if index >= self.len_bits {
            return self.clone();
        }
        let mut bytes = self.as_bytes().to_vec();
        bytes[index / 8] ^= 1 << (7 - index % 8);
        Certificate {
            repr: Repr::Owned(bytes),
            len_bits: self.len_bits,
        }
    }

    /// The raw bytes (the final byte's trailing bits are zero).
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Owned(bytes) => bytes,
            Repr::View {
                arena,
                byte_off,
                byte_len,
            } => &arena[*byte_off..byte_off + byte_len],
        }
    }

    /// Builds a certificate from raw bytes and a bit length — the
    /// binary-wire inverse of [`Certificate::as_bytes`] +
    /// [`Certificate::len_bits`]. Returns `None` unless the byte count
    /// matches `len_bits` exactly and the final byte's trailing padding
    /// bits are zero (the canonical form, which [`Certificate::from_hex`]
    /// also requires).
    pub fn from_bytes(bytes: Vec<u8>, len_bits: usize) -> Option<Certificate> {
        if bytes.len() != len_bits.div_ceil(8) {
            return None;
        }
        if !len_bits.is_multiple_of(8) {
            if let Some(&last) = bytes.last() {
                let used = len_bits % 8;
                if last & ((1u8 << (8 - used)) - 1) != 0 {
                    return None;
                }
            }
        }
        Some(Certificate {
            repr: Repr::Owned(bytes),
            len_bits,
        })
    }

    /// Serializes as `"<len_bits>:<hex bytes>"` (for files and CLIs).
    pub fn to_hex(&self) -> String {
        let mut s = format!("{}:", self.len_bits);
        for b in self.as_bytes() {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses the [`Certificate::to_hex`] format; the bytes must be in
    /// [`Certificate::from_bytes`]'s canonical form.
    pub fn from_hex(s: &str) -> Option<Certificate> {
        let (len_str, hex) = s.split_once(':')?;
        let len_bits: usize = len_str.parse().ok()?;
        if hex.len() % 2 != 0 {
            return None;
        }
        let bytes = hex
            .as_bytes()
            .chunks(2)
            .map(|pair| {
                let hi = (pair[0] as char).to_digit(16)?;
                let lo = (pair[1] as char).to_digit(16)?;
                Some((hi * 16 + lo) as u8)
            })
            .collect::<Option<Vec<u8>>>()?;
        Certificate::from_bytes(bytes, len_bits)
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b[", self.len_bits)?;
        for i in 0..self.len_bits.min(64) {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        if self.len_bits > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

/// Writes fixed-width fields MSB-first.
///
/// Writers double as the prover-side attribution point of the bit
/// ledger (`locert_trace::ledger`): [`BitWriter::component`] marks the
/// start of a named witness component, and [`BitWriter::record_for`]
/// hands the marks to a ledger capture running on this thread. While no
/// capture is active anywhere, both cost one relaxed atomic load.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    len_bits: usize,
    /// `(component, start-bit)` attribution marks, kept only while a
    /// ledger capture is active.
    marks: Vec<(&'static str, usize)>,
}

impl BitWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the `width` low bits of `value`, MSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write(&mut self, value: u64, width: u32) -> &mut Self {
        assert!(width <= 64, "width exceeds 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        // Byte-at-a-time instead of bit-at-a-time: each iteration packs
        // up to 8 bits into the current partial byte.
        let mut remaining = width as usize;
        while remaining > 0 {
            let bit_in_byte = self.len_bits % 8;
            if bit_in_byte == 0 {
                self.bytes.push(0);
            }
            let avail = 8 - bit_in_byte;
            let take = avail.min(remaining);
            let chunk = (value >> (remaining - take)) & ((1u64 << take) - 1);
            *self.bytes.last_mut().expect("pushed") |= (chunk as u8) << (avail - take);
            self.len_bits += take;
            remaining -= take;
        }
        self
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) -> &mut Self {
        self.write(u64::from(bit), 1)
    }

    /// Appends all bits of another certificate.
    pub fn write_cert(&mut self, other: &Certificate) -> &mut Self {
        self.write_bits(other.as_bytes(), other.len_bits())
    }

    /// Appends the first `len_bits` bits of `bytes`, which must hold
    /// them in canonical form: `len_bits.div_ceil(8)` bytes, the final
    /// byte's padding bits zero (as [`BitWriter::bytes`] and
    /// [`Certificate::as_bytes`] leave them). A byte-aligned writer
    /// appends with one memcpy; an unaligned one splits each source byte
    /// over the current partial byte and the next, so the zero padding
    /// lands past the end.
    pub fn write_bits(&mut self, bytes: &[u8], len_bits: usize) -> &mut Self {
        debug_assert_eq!(bytes.len(), len_bits.div_ceil(8), "non-canonical length");
        let shift = self.len_bits % 8;
        if shift == 0 {
            self.bytes.extend_from_slice(bytes);
        } else {
            let mut carry = self
                .bytes
                .pop()
                .expect("an unaligned writer has a partial byte");
            self.bytes.reserve(bytes.len() + 1);
            for &b in bytes {
                self.bytes.push(carry | (b >> shift));
                carry = b << (8 - shift);
            }
            self.bytes.push(carry);
            self.bytes.truncate((self.len_bits + len_bits).div_ceil(8));
        }
        self.len_bits += len_bits;
        self
    }

    /// Appends everything `other` holds: its bits, and its component
    /// marks shifted to where they land, so a part encoded once can open
    /// many certificates with the ledger it would have written in place.
    pub fn append(&mut self, other: &BitWriter) -> &mut Self {
        let base = self.len_bits;
        self.marks.extend(
            other
                .marks
                .iter()
                .map(|&(name, start)| (name, base + start)),
        );
        self.write_bits(&other.bytes, other.len_bits)
    }

    /// Current length in bits.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// The bytes written so far, in canonical form (the final byte's
    /// padding bits zero).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Empties the writer for the next certificate, keeping its buffers.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.len_bits = 0;
        self.marks.clear();
    }

    /// Marks the bits written from here on as belonging to the witness
    /// component `name` (until the next mark or the end). A no-op —
    /// one relaxed atomic load — unless a `locert_trace::ledger`
    /// capture is running on this thread.
    pub fn component(&mut self, name: &'static str) -> &mut Self {
        if locert_trace::ledger::capturing() {
            self.marks.push((name, self.len_bits));
        }
        self
    }

    /// Finalizes into a [`Certificate`].
    pub fn finish(self) -> Certificate {
        Certificate {
            repr: Repr::Owned(self.bytes),
            len_bits: self.len_bits,
        }
    }

    /// Finalizes into a [`Certificate`] and, when a ledger capture is
    /// active on this thread, records the component attribution for
    /// `vertex` (a `NodeId` index). Provers write through
    /// `Assignment::write_each`, which records each vertex with
    /// [`BitWriter::record_for`] instead; this is the per-writer form
    /// its test holds it to.
    ///
    /// Debug builds enforce the tiling invariant at the source: inside
    /// a capture, a non-empty certificate must open with a component
    /// mark at bit 0 so the attributed spans tile the whole
    /// certificate.
    pub fn finish_for(self, vertex: usize) -> Certificate {
        self.record_for(vertex);
        self.finish()
    }

    /// The ledger half of [`BitWriter::finish_for`]: records the bits
    /// written so far as `vertex`'s certificate when a ledger capture is
    /// active on this thread, and leaves the writer as it is.
    pub fn record_for(&self, vertex: usize) {
        if locert_trace::ledger::capturing() {
            debug_assert!(
                self.len_bits == 0 || self.marks.first().is_some_and(|&(_, start)| start == 0),
                "certificate for vertex {vertex} has bits before the first component mark"
            );
            locert_trace::ledger::record_cert(vertex, self.len_bits, &self.marks);
        }
    }
}

/// Reads fixed-width fields MSB-first; every accessor returns `None` past
/// the end (verifiers must treat malformed certificates as rejection, not
/// panic).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    len_bits: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader at bit position 0.
    pub fn new(cert: &'a Certificate) -> Self {
        BitReader {
            bytes: cert.as_bytes(),
            len_bits: cert.len_bits(),
            pos: 0,
        }
    }

    /// Reads a `width`-bit field; `None` if fewer bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "width exceeds 64");
        if self.pos + width as usize > self.len_bits {
            return None;
        }
        if width == 0 {
            return Some(0);
        }
        // One big-endian load of the eight bytes from the field's first
        // byte, when they exist and hold the whole field (a field of up
        // to 57 bits always fits).
        let first = self.pos / 8;
        let shift = self.pos % 8;
        if let Some(chunk) = self.bytes.get(first..first + 8) {
            if shift + width as usize <= 64 {
                let word = u64::from_be_bytes(chunk.try_into().expect("eight bytes"));
                self.pos += width as usize;
                return Some((word << shift) >> (64 - width));
            }
        }
        // Byte-at-a-time: each iteration pulls the overlap of the field
        // with one byte, so a 64-bit read costs at most 9 iterations
        // instead of 64.
        let mut v = 0u64;
        let mut pos = self.pos;
        let mut remaining = width as usize;
        while remaining > 0 {
            let byte = u64::from(self.bytes[pos / 8]);
            let bit_in_byte = pos % 8;
            let avail = 8 - bit_in_byte;
            let take = avail.min(remaining);
            let chunk = (byte >> (avail - take)) & ((1u64 << take) - 1);
            v = (v << take) | chunk;
            pos += take;
            remaining -= take;
        }
        self.pos = pos;
        Some(v)
    }

    /// Reads the next `len` bits as a certificate of their own; `None`
    /// if fewer than `len` bits remain. Every scheme that embeds a
    /// sub-certificate reads it through this.
    ///
    /// Works a byte at a time: an aligned read is one copy, an unaligned
    /// one joins each output byte from two shifted input bytes. The tail
    /// padding is cleared, so the result is canonical.
    pub fn read_cert(&mut self, len: usize) -> Option<Certificate> {
        if len > self.remaining() {
            return None;
        }
        let first = self.pos / 8;
        let shift = self.pos % 8;
        let src = &self.bytes[first..];
        let n = len.div_ceil(8);
        let mut out: Vec<u8> = if shift == 0 {
            src[..n].to_vec()
        } else {
            (0..n)
                .map(|i| src[i] << shift | src.get(i + 1).map_or(0, |b| b >> (8 - shift)))
                .collect()
        };
        if !len.is_multiple_of(8) {
            *out.last_mut().expect("len > 0") &= 0xFF << (8 - len % 8);
        }
        self.pos += len;
        Some(Certificate {
            repr: Repr::Owned(out),
            len_bits: len,
        })
    }

    /// Splits off the next `len` bits as a reader of their own, without
    /// copying them; `None` if fewer than `len` bits remain.
    pub fn take(&mut self, len: usize) -> Option<BitReader<'a>> {
        if len > self.remaining() {
            return None;
        }
        let window = BitReader {
            bytes: self.bytes,
            len_bits: self.pos + len,
            pos: self.pos,
        };
        self.pos += len;
        Some(window)
    }

    /// Whether the bits left are exactly `bits`, compared in place: one
    /// slice comparison on a byte boundary, shifted bytes elsewhere.
    pub fn remaining_eq(&self, bits: &Certificate) -> bool {
        let len = self.remaining();
        if len != bits.len_bits() {
            return false;
        }
        let (other, src, shift) = (bits.as_bytes(), &self.bytes[self.pos / 8..], self.pos % 8);
        let byte = |i: usize| match shift {
            0 => src[i],
            _ => src[i] << shift | src.get(i + 1).map_or(0, |b| b >> (8 - shift)),
        };
        let (whole, tail) = (len / 8, len % 8);
        let body = match shift {
            0 => src[..whole] == other[..whole],
            _ => (0..whole).all(|i| byte(i) == other[i]),
        };
        body && (tail == 0 || (byte(whole) ^ other[whole]) >> (8 - tail) == 0)
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read(1).map(|v| v == 1)
    }

    /// Remaining bits.
    pub fn remaining(&self) -> usize {
        self.len_bits - self.pos
    }

    /// Whether the reader consumed the certificate exactly.
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// Number of bits needed to store values in `0..=max` (at least 1).
pub fn width_for(max: u64) -> u32 {
    (u64::BITS - max.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_place_match_bit_by_bit() {
        // Windows at every start and length: their reads stop at the
        // window's end although the bytes go on.
        let bytes: Vec<u8> = (0..20u32).map(|i| (i * 151 + 7) as u8).collect();
        let cert = Certificate::from_bytes(bytes, 160).unwrap();
        let bits = |from: usize, width: u32| {
            (from..from + width as usize).fold(0u64, |v, i| v << 1 | u64::from(cert.bit(i)))
        };
        for start in 0..=160 {
            let mut r = BitReader::new(&cert);
            r.read_cert(start).unwrap();
            assert!(r.clone().take(160 - start + 1).is_none());
            for len in 0..=160 - start {
                let mut rest = r.clone();
                let window = rest.take(len).unwrap();
                assert_eq!(rest.remaining(), 160 - start - len);
                for width in 0..=64u32 {
                    let mut w = window.clone();
                    let expected = (width as usize <= len).then(|| bits(start, width));
                    assert_eq!(
                        w.read(width),
                        expected,
                        "start {start}, len {len}, width {width}"
                    );
                }
                let mut w = window.clone();
                assert_eq!(
                    w.read_cert(len),
                    r.clone().read_cert(len),
                    "start {start}, len {len}"
                );
                let copy = r.clone().read_cert(len).unwrap();
                assert!(window.remaining_eq(&copy), "start {start}, len {len}");
                for i in [0, len / 2, len.saturating_sub(1)]
                    .into_iter()
                    .filter(|&i| i < len)
                {
                    assert!(!window.remaining_eq(&copy.with_bit_flipped(i)));
                }
                assert_eq!(window.remaining_eq(&cert), len == 160);
            }
        }
    }

    #[test]
    fn roundtrip_fields() {
        let mut w = BitWriter::new();
        w.write(5, 3).write(0, 2).write(u64::MAX, 64).write(1, 1);
        let c = w.finish();
        assert_eq!(c.len_bits(), 70);
        let mut r = BitReader::new(&c);
        assert_eq!(r.read(3), Some(5));
        assert_eq!(r.read(2), Some(0));
        assert_eq!(r.read(64), Some(u64::MAX));
        assert_eq!(r.read_bit(), Some(true));
        assert!(r.exhausted());
    }

    #[test]
    fn empty_certificate() {
        let c = Certificate::empty();
        assert_eq!(c.len_bits(), 0);
        assert!(c.is_empty());
        let mut r = BitReader::new(&c);
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_rejected() {
        BitWriter::new().write(4, 2);
    }

    #[test]
    fn read_past_end_is_none_not_panic() {
        let mut w = BitWriter::new();
        w.write(3, 2);
        let c = w.finish();
        let mut r = BitReader::new(&c);
        assert_eq!(r.read(3), None);
        assert_eq!(r.read(2), Some(3));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn bit_indexing_msb_first() {
        let mut w = BitWriter::new();
        w.write(0b10, 2);
        let c = w.finish();
        assert!(c.bit(0));
        assert!(!c.bit(1));
    }

    #[test]
    fn flip_bit() {
        let mut w = BitWriter::new();
        w.write(0b1010, 4);
        let c = w.finish().with_bit_flipped(1);
        let mut r = BitReader::new(&c);
        assert_eq!(r.read(4), Some(0b1110));
    }

    #[test]
    fn adversarial_indices_are_total() {
        let mut w = BitWriter::new();
        w.write(0b11, 2);
        let c = w.finish();
        // Out-of-range reads are 0, not panics.
        assert!(!c.bit(2));
        assert!(!c.bit(usize::MAX));
        assert_eq!(c.try_bit(1), Some(true));
        assert_eq!(c.try_bit(2), None);
        // Out-of-range flips are no-ops.
        assert_eq!(c.with_bit_flipped(17), c);
        assert_eq!(
            Certificate::empty().with_bit_flipped(0),
            Certificate::empty()
        );
    }

    #[test]
    fn write_cert_concatenates() {
        let mut a = BitWriter::new();
        a.write(0b101, 3);
        let ca = a.finish();
        let mut b = BitWriter::new();
        b.write(0b01, 2).write_cert(&ca);
        let cb = b.finish();
        assert_eq!(cb.len_bits(), 5);
        let mut r = BitReader::new(&cb);
        assert_eq!(r.read(2), Some(0b01));
        assert_eq!(r.read(3), Some(0b101));
    }

    #[test]
    fn write_bits_matches_a_bit_loop_at_every_offset() {
        let source: Vec<bool> = (0..70).map(|i| (i * 7 + i / 3) % 5 < 2).collect();
        for offset in 0..10 {
            for len in 0..source.len() {
                let mut bits = BitWriter::new();
                for &b in &source[..len] {
                    bits.write_bit(b);
                }
                let cert = bits.finish();
                let mut fast = BitWriter::new();
                let mut slow = BitWriter::new();
                for i in 0..offset {
                    fast.write_bit(i % 2 == 0);
                    slow.write_bit(i % 2 == 0);
                }
                fast.write_cert(&cert);
                for &b in &source[..len] {
                    slow.write_bit(b);
                }
                assert_eq!(fast.finish(), slow.finish(), "offset {offset}, {len} bits");
            }
        }
    }

    #[test]
    fn a_cleared_writer_starts_afresh() {
        let mut w = BitWriter::new();
        w.write(0b1011, 4);
        w.clear();
        w.write(0b01, 2);
        assert_eq!((w.bytes(), w.len_bits()), (&[0b0100_0000][..], 2));
    }

    #[test]
    fn hex_roundtrip() {
        let mut w = BitWriter::new();
        w.write(0b1011001, 7).write(0xABCD, 16);
        let c = w.finish();
        let hex = c.to_hex();
        assert_eq!(Certificate::from_hex(&hex), Some(c));
        // Empty certificate.
        let e = Certificate::empty();
        assert_eq!(Certificate::from_hex(&e.to_hex()), Some(e));
    }

    #[test]
    fn hex_rejects_malformed() {
        assert_eq!(Certificate::from_hex("nope"), None);
        assert_eq!(Certificate::from_hex("8:zz"), None);
        // Wrong byte count for the claimed length.
        assert_eq!(Certificate::from_hex("16:ff"), None);
        // Non-zero padding bits.
        assert_eq!(Certificate::from_hex("4:0f"), None);
        assert!(Certificate::from_hex("4:f0").is_some());
    }

    /// The bit-at-a-time copy that `read_cert` replaces.
    fn read_cert_bitwise(r: &mut BitReader<'_>, len: usize) -> Option<Certificate> {
        if len > r.remaining() {
            return None;
        }
        let mut w = BitWriter::new();
        for _ in 0..len {
            w.write_bit(r.read_bit()?);
        }
        Some(w.finish())
    }

    #[test]
    fn read_cert_matches_bit_loop() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for total in [0usize, 1, 7, 8, 9, 55, 56, 57, 63, 64, 65, 130, 300] {
            let mut w = BitWriter::new();
            for _ in 0..total {
                w.write_bit(rng.random_bool(0.5));
            }
            let cert = w.finish();
            for start in 0..8.min(total + 1) {
                for len in [0, 1, 5, 56, 57, 120, total - start, total - start + 1] {
                    let mut fast = BitReader::new(&cert);
                    let mut slow = BitReader::new(&cert);
                    fast.read(start as u32).unwrap();
                    slow.read(start as u32).unwrap();
                    let got = fast.read_cert(len);
                    assert_eq!(
                        got,
                        read_cert_bitwise(&mut slow, len),
                        "{total}/{start}/{len}"
                    );
                    assert_eq!(fast.remaining(), slow.remaining());
                    if let Some(c) = got {
                        assert_eq!(c.len_bits(), len);
                        // Canonical padding: equal to a fresh byte copy.
                        assert_eq!(Certificate::from_bytes(c.as_bytes().to_vec(), len), Some(c));
                    }
                }
            }
        }
    }

    #[test]
    fn width_for_values() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
        assert_eq!(width_for(u64::MAX), 64);
    }

    #[test]
    fn component_marks_flow_into_ledger_captures() {
        // Outside a capture: marks are not even stored.
        let mut w = BitWriter::new();
        w.component("a").write(1, 3);
        assert!(w.marks.is_empty());
        let c = w.finish_for(0);
        assert_eq!(c.len_bits(), 3);
        // Inside a capture: spans tile the certificate.
        let (cert, ledger) = locert_trace::ledger::capture(|| {
            let mut w = BitWriter::new();
            w.component("root-id");
            w.write(5, 4);
            w.component("distance");
            w.write(2, 6);
            w.finish_for(7)
        });
        assert_eq!(cert.len_bits(), 10);
        assert_eq!(ledger.certs.len(), 1);
        let entry = &ledger.certs[0];
        assert_eq!(entry.vertex, 7);
        assert_eq!(entry.total_bits, 10);
        assert!(entry.fully_attributed());
        assert_eq!(entry.component_bits()["root-id"], 4);
        assert_eq!(entry.component_bits()["distance"], 6);
    }

    #[test]
    fn append_matches_writing_in_place_marks_included() {
        // A part appended after 0..=9 bits must yield the bytes and the
        // ledger of the same fields written in place.
        let part = |w: &mut BitWriter| {
            w.component("map");
            w.write(0x2d5, 10);
            w.component("tail");
            w.write(1, 3);
        };
        for lead in 0..10u32 {
            let (appended, appended_ledger) = locert_trace::ledger::capture(|| {
                let mut p = BitWriter::new();
                part(&mut p);
                let mut w = BitWriter::new();
                w.component("lead").write(0, lead);
                w.append(&p);
                w.finish_for(0)
            });
            let (in_place, in_place_ledger) = locert_trace::ledger::capture(|| {
                let mut w = BitWriter::new();
                w.component("lead").write(0, lead);
                part(&mut w);
                w.finish_for(0)
            });
            assert_eq!(appended, in_place, "lead {lead}");
            assert_eq!(appended_ledger, in_place_ledger, "lead {lead}");
        }
    }

    #[test]
    fn empty_certificate_needs_no_marks() {
        let ((), ledger) = locert_trace::ledger::capture(|| {
            let _ = BitWriter::new().finish_for(0);
        });
        assert!(ledger.certs[0].fully_attributed());
        assert_eq!(ledger.certs[0].total_bits, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the first component mark")]
    fn unmarked_bits_violate_the_tiling_invariant_in_debug() {
        let ((), _ledger) = locert_trace::ledger::capture(|| {
            let mut w = BitWriter::new();
            w.write(1, 2); // no component mark at bit 0.
            w.component("late");
            w.write(1, 2);
            let _ = w.finish_for(0);
        });
    }

    #[test]
    fn display_formats() {
        let mut w = BitWriter::new();
        w.write(0b110, 3);
        let c = w.finish();
        assert_eq!(c.to_string(), "3b[110]");
    }
}
