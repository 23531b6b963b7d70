//! Fixed-layout little-endian block codecs and checked width conversions.
//!
//! Every on-"disk" node format in this workspace (LIDF records, W-BOX and
//! B-BOX nodes, naive-k records) is a fixed layout of unsigned integers.
//! [`Reader`] and [`Writer`] are thin cursors over a block buffer that keep
//! the serialization code in the data-structure crates short and uniform.
//!
//! The conversion helpers ([`u32_to_usize`], [`usize_to_u64`],
//! [`usize_to_i64`], [`u64_to_index`], [`usize_to_u32`], [`usize_to_u16`])
//! exist so that
//! label/offset arithmetic never goes through a bare `as` cast: the paper's
//! label-size guarantees (Thm 4.4 / Thm 5.1) are stated in exact bit
//! widths, and a silent truncation would void them. Widening directions are
//! guarded by compile-time width assertions; narrowing directions either
//! return a typed [`CastOverflow`] or saturate to a value that can only
//! trip a bounds check, never alias a valid index.

use std::fmt;

/// Slicing-by-8 lookup tables: `CRC_TABLES[k][i]` is the CRC register after
/// feeding byte `i` followed by `k` zero bytes, i.e. `8 * (k + 1)` bit steps
/// of the reflected polynomial starting from `i`. Table 0 is the classic
/// bytewise table.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    // `seed` mirrors `i` in u32 so the const block needs no cast.
    let mut seed = 0u32;
    while i < 256 {
        let mut crc = seed;
        let mut bit = 0;
        while bit < 64 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
            if bit % 8 == 0 {
                tables[bit / 8 - 1][i] = crc;
            }
        }
        i += 1;
        seed += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), hand-rolled so the
/// workspace stays dependency-free. Used for the per-block trailers of the
/// file backend, the in-memory page checksums, and the WAL record
/// checksums — one shared definition so a page written by the pager and
/// replayed by the WAL verifies identically.
///
/// Slicing-by-8: each step folds eight input bytes through eight lookup
/// tables at once instead of one byte through one table, about four times
/// faster than the bytewise loop with bit-identical output. A tail shorter
/// than eight bytes falls back to the bytewise step.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let (chunks, tail) = data.as_chunks::<8>();
    let mut crc = !0u32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in chunks {
        let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = t7[usize::from(c0)]
            ^ t6[usize::from(c1)]
            ^ t5[usize::from(c2)]
            ^ t4[usize::from(c3)]
            ^ t3[usize::from(b4)]
            ^ t2[usize::from(b5)]
            ^ t1[usize::from(b6)]
            ^ t0[usize::from(b7)];
    }
    for &byte in tail {
        let [low, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ t0[usize::from(low ^ byte)];
    }
    !crc
}

/// Growable little-endian writer backed by a `Vec<u8>`, for variable-length
/// payloads (structure state blobs, WAL records) where the fixed-block
/// [`Writer`] does not fit.
#[derive(Default)]
pub struct VecWriter {
    buf: Vec<u8>,
}

impl VecWriter {
    /// Empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, yielding the accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes verbatim (length is the caller's concern).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A narrowing conversion did not fit the target width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CastOverflow {
    /// The value that did not fit (widened for display).
    pub value: u64,
    /// The width it was being narrowed to, in bits.
    pub target_bits: u32,
}

impl fmt::Display for CastOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {} does not fit in {} bits",
            self.value, self.target_bits
        )
    }
}

impl std::error::Error for CastOverflow {}

/// Widen a `u32` (e.g. a raw [`BlockId`](crate::BlockId) value) to `usize`.
/// Infallible: the workspace only targets platforms with at least 32-bit
/// pointers, checked at compile time.
#[inline]
#[must_use]
pub fn u32_to_usize(v: u32) -> usize {
    const { assert!(usize::BITS >= 32) };
    usize::try_from(v).unwrap_or(usize::MAX) // unreachable under the guard
}

/// Widen a `usize` (slot count, byte offset) to the `u64` domain labels
/// live in. Infallible: pointers wider than 64 bits are rejected at
/// compile time.
#[inline]
#[must_use]
pub fn usize_to_u64(v: usize) -> u64 {
    const { assert!(usize::BITS <= 64) };
    u64::try_from(v).unwrap_or(u64::MAX) // unreachable under the guard
}

/// Widen a `usize` count into the signed `i64` delta domain of the effect
/// algebra, saturating at `i64::MAX`. Counts cannot reach 2^63 here (label
/// widths overflow long before), and saturation can only trip a length
/// assertion — unlike `as i64`, which would silently flip the delta's sign.
#[inline]
#[must_use]
pub fn usize_to_i64(v: usize) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Narrow a `u64` quantity to a `usize` index, saturating on overflow.
/// Saturation is deliberate: `usize::MAX` can only trip a slice bounds
/// check, whereas a truncating cast would alias a *valid* index and
/// corrupt data silently.
#[inline]
#[must_use]
pub fn u64_to_index(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Checked narrowing of a count/offset to the `u32` on-disk field width.
#[inline]
pub fn usize_to_u32(v: usize) -> Result<u32, CastOverflow> {
    u32::try_from(v).map_err(|_| CastOverflow {
        value: usize_to_u64(v),
        target_bits: 32,
    })
}

/// Checked narrowing of a count/offset to the `u16` on-disk field width.
#[inline]
pub fn usize_to_u16(v: usize) -> Result<u16, CastOverflow> {
    u16::try_from(v).map_err(|_| CastOverflow {
        value: usize_to_u64(v),
        target_bits: 16,
    })
}

/// Sequential little-endian reader over a byte slice.
#[derive(Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Cursor at byte `offset` of `buf`.
    pub fn at(buf: &'a [u8], offset: usize) -> Self {
        Self { buf, pos: offset }
    }

    /// Current byte offset.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Skip `n` bytes.
    #[inline]
    pub fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    #[inline]
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let bytes: [u8; N] = self
            .buf
            .get(self.pos..self.pos + N)
            .expect("codec: block underrun")
            .try_into()
            .expect("codec: block underrun");
        self.pos += N;
        bytes
    }

    /// Read a `u8`.
    #[inline]
    pub fn u8(&mut self) -> u8 {
        let [b] = self.take::<1>();
        b
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    /// Borrow the next `n` raw bytes and advance past them.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> &'a [u8] {
        let slice = self
            .buf
            .get(self.pos..self.pos + n)
            .expect("codec: block underrun");
        self.pos += n;
        slice
    }
}

/// Sequential little-endian writer over a mutable byte slice.
pub struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> Writer<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a mut [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Cursor at byte `offset` of `buf`.
    pub fn at(buf: &'a mut [u8], offset: usize) -> Self {
        Self { buf, pos: offset }
    }

    /// Current byte offset.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Skip `n` bytes, leaving them untouched.
    #[inline]
    pub fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }

    /// Write a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Write a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_layout() {
        let mut buf = vec![0u8; 32];
        {
            let mut w = Writer::new(&mut buf);
            w.u8(0xAB);
            w.u16(0xBEEF);
            w.u32(0xDEADBEEF);
            w.u64(0x0123_4567_89AB_CDEF);
            assert_eq!(w.pos(), 15);
        }
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), 0xAB);
        assert_eq!(r.u16(), 0xBEEF);
        assert_eq!(r.u32(), 0xDEADBEEF);
        assert_eq!(r.u64(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.pos(), 15);
    }

    #[test]
    fn offset_cursors() {
        let mut buf = vec![0u8; 16];
        Writer::at(&mut buf, 8).u64(42);
        assert_eq!(Reader::at(&buf, 8).u64(), 42);
        let mut r = Reader::new(&buf);
        r.skip(8);
        assert_eq!(r.u64(), 42);
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn underrun_panics() {
        let buf = [0u8; 3];
        Reader::new(&buf).u32();
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE 802.3 check value for the standard 9-byte test string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Sensitivity: a single flipped bit changes the digest.
        let a = crc32(&[0u8; 64]);
        let mut torn = [0u8; 64];
        torn[63] = 1;
        assert_ne!(a, crc32(&torn));
    }

    /// The plain bytewise table loop the slicing-by-8 version replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            let [low, ..] = crc.to_le_bytes();
            crc = (crc >> 8) ^ CRC_TABLES[0][usize::from(low ^ byte)];
        }
        !crc
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        // Deterministic pseudo-random bytes, with room for 8 start offsets
        // past the longest length checked.
        let mut state = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..8193 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state.to_le_bytes()[0]
            })
            .collect();
        for start in 0..8 {
            for len in (0..=64).chain(8191..=8193) {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn vec_writer_roundtrips_through_reader() {
        let mut w = VecWriter::new();
        assert!(w.is_empty());
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(1 << 40);
        w.bytes(&[1, 2, 3]);
        assert_eq!(w.len(), 18);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), 7);
        assert_eq!(r.u16(), 513);
        assert_eq!(r.u32(), 70_000);
        assert_eq!(r.u64(), 1 << 40);
    }

    #[test]
    fn checked_conversions() {
        assert_eq!(u32_to_usize(u32::MAX), u32::MAX as usize);
        assert_eq!(usize_to_u64(17), 17);
        assert_eq!(u64_to_index(9), 9);
        assert_eq!(
            u64_to_index(u64::MAX),
            usize::MAX,
            "saturates, never aliases"
        );
        assert_eq!(usize_to_u16(65535), Ok(65535));
        let err = usize_to_u16(65536).expect_err("must overflow");
        assert_eq!(err.target_bits, 16);
        assert_eq!(err.value, 65536);
        assert_eq!(usize_to_u32(70_000), Ok(70_000));
        assert!(usize_to_u32(usize::MAX).is_err() || usize::BITS <= 32);
    }
}
