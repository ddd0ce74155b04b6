//! The fixed little-endian binary codec of every on-disk structure.
//!
//! All serialization in this crate is hand-rolled through these helpers:
//! the workspace's `serde` is an offline marker-trait shim, and a durable
//! format wants an explicit, stable byte layout anyway.  The `put_*`
//! functions append to a `Vec` (WAL records), `Word` writes one value into
//! a fixed buffer (the framed files [`crate::snapshot`] streams to disk),
//! and [`Decoder`] reads both back.  Widths are fixed —
//! `usize` quantities are always written as `u64`, `f64`s as raw IEEE bits
//! (`to_bits`/`from_bits`, which is what makes numeric state round-trip
//! **bit for bit**) — so files written on any host read back identically.

use crate::error::{Result, StoreError};

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a `u64` (the only width `usize` is ever stored at).
pub fn put_len(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Appends a bool mask bit-packed into `⌈len/8⌉` bytes, length prefix
/// included: flag `i` is bit `i % 8` of byte `i / 8`.
pub fn put_mask(out: &mut Vec<u8>, mask: &[bool]) {
    put_len(out, mask.len());
    let (bytes, rest) = mask.as_chunks::<8>();
    out.reserve(mask.len().div_ceil(8));
    out.extend(bytes.iter().map(|flags| pack(flags)));
    if !rest.is_empty() {
        out.push(pack(rest));
    }
}

/// Up to 8 flags as one byte, flag `i` in bit `i`.
fn pack(flags: &[bool]) -> u8 {
    flags
        .iter()
        .enumerate()
        .fold(0, |byte, (i, &up)| byte | u8::from(up) << i)
}

/// Every byte's 8 flags, bit `i` as flag `i`: [`Decoder::mask`] copies one
/// entry per packed byte.
const UNPACKED: [[bool; 8]; 256] = {
    let mut table = [[false; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut i = 0;
        while i < 8 {
            table[byte][i] = byte >> i & 1 == 1;
            i += 1;
        }
        byte += 1;
    }
    table
};

/// A fixed-width value at its stored width, for writers that encode into a
/// fixed buffer rather than a `Vec` (the framed files of
/// [`crate::snapshot`]).
pub(crate) trait Word: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Writes the value into `dst`, which is exactly `WIDTH` bytes long.
    fn put_le(self, dst: &mut [u8]);
}

impl Word for u8 {
    const WIDTH: usize = 1;
    fn put_le(self, dst: &mut [u8]) {
        dst[0] = self;
    }
}

impl Word for u32 {
    const WIDTH: usize = 4;
    fn put_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }
}

impl Word for u64 {
    const WIDTH: usize = 8;
    fn put_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }
}

impl Word for usize {
    const WIDTH: usize = 8;
    fn put_le(self, dst: &mut [u8]) {
        (self as u64).put_le(dst);
    }
}

impl Word for f64 {
    const WIDTH: usize = 8;
    fn put_le(self, dst: &mut [u8]) {
        self.to_bits().put_le(dst);
    }
}

/// A stored `u64` as a `usize`: corrupt where it does not fit (on 32-bit
/// hosts) rather than silently wrapped.
fn stored_usize(v: u64) -> Result<usize> {
    usize::try_from(v)
        .map_err(|_| StoreError::Corrupt(format!("stored length {v} overflows usize")))
}

/// A bounds-checked reader over an encoded buffer.  Overruns surface as
/// [`StoreError::Corrupt`], never as panics — decode inputs are untrusted
/// disk bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "decode overrun: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on overrun.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on overrun.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a stored `u64` back as a `usize`, rejecting values that do not
    /// fit (corrupt on 32-bit hosts rather than silently wrapping).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on overrun or overflow.
    // Not a container length: this *reads a length field* from the stream,
    // so clippy's len/is_empty pairing does not apply.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize> {
        stored_usize(self.u64()?)
    }

    /// Reads an `f64` from its raw bits.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on overrun.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Takes the bytes of `n` values `width` bytes wide in one bounds check,
    /// so a corrupt count fails before anything is allocated for it.
    fn array(&mut self, n: usize, width: usize) -> Result<&'a [u8]> {
        let bytes = n.checked_mul(width).ok_or_else(|| {
            StoreError::Corrupt(format!("{n} values of {width} bytes overflow usize"))
        })?;
        self.take(bytes)
    }

    /// Reads `n` little-endian `u32`s.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on overrun.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        let (words, _) = self.array(n, 4)?.as_chunks::<4>();
        Ok(words.iter().map(|w| u32::from_le_bytes(*w)).collect())
    }

    /// Reads `n` `f64`s from their raw bits.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on overrun.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>> {
        let (words, _) = self.array(n, 8)?.as_chunks::<8>();
        Ok(words
            .iter()
            .map(|w| f64::from_bits(u64::from_le_bytes(*w)))
            .collect())
    }

    /// Reads `n` stored `u64`s back as `usize`s (see [`Decoder::len`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on overrun or overflow.
    pub fn lens(&mut self, n: usize) -> Result<Vec<usize>> {
        let (words, _) = self.array(n, 8)?.as_chunks::<8>();
        let mut out = Vec::with_capacity(n);
        for w in words {
            out.push(stored_usize(u64::from_le_bytes(*w))?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on overrun.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.len()?;
        self.take(n)
    }

    /// Reads a bit-packed bool mask written by [`put_mask`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on overrun.
    pub fn mask(&mut self) -> Result<Vec<bool>> {
        let n = self.len()?;
        let packed = self.take(n.div_ceil(8))?;
        let mut mask = Vec::with_capacity(packed.len() * 8);
        for &byte in packed {
            mask.extend_from_slice(&UNPACKED[usize::from(byte)]);
        }
        mask.truncate(n);
        Ok(mask)
    }

    /// Fails unless the whole buffer was consumed — trailing garbage in a
    /// checksummed record means the encoder and decoder disagree.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if bytes remain.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} undecoded bytes at the end of a record",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_len(&mut buf, 12345);
        put_u64(&mut buf, (-0.0f64).to_bits());
        put_u64(&mut buf, 0x7FF8_0000_0000_0001); // a NaN payload
        put_bytes(&mut buf, b"hello");
        let mask: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        put_mask(&mut buf, &mask);
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.len().unwrap(), 12345);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.f64().unwrap().to_bits(), 0x7FF8_0000_0000_0001);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert_eq!(d.mask().unwrap(), mask);
        d.finish().unwrap();
    }

    #[test]
    fn overruns_and_trailing_bytes_are_corrupt_not_panics() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        let mut d = Decoder::new(&buf);
        assert!(d.u64().is_err());
        let mut d = Decoder::new(&buf);
        d.u32().unwrap();
        assert!(matches!(d.take(1), Err(StoreError::Corrupt(_))));
        let d = Decoder::new(&buf);
        assert!(d.finish().is_err());
        // A length prefix larger than the buffer is an overrun, not an OOM.
        let mut buf = Vec::new();
        put_len(&mut buf, usize::MAX / 2);
        let mut d = Decoder::new(&buf);
        assert!(d.bytes().is_err());
    }

    #[test]
    fn arrays_read_back_and_refuse_counts_past_the_buffer() {
        let mut buf = Vec::new();
        for v in [7u32, u32::MAX] {
            put_u32(&mut buf, v);
        }
        for v in [0.5f64, -0.0] {
            put_u64(&mut buf, v.to_bits());
        }
        put_len(&mut buf, 12345);
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u32s(2).unwrap(), [7, u32::MAX]);
        let f = d.f64s(2).unwrap();
        assert_eq!(f[0].to_bits(), 0.5f64.to_bits());
        assert_eq!(f[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.lens(1).unwrap(), [12345]);
        d.finish().unwrap();
        for n in [9usize, 1 << 40, usize::MAX / 4 + 1, usize::MAX] {
            let mut d = Decoder::new(&buf);
            assert!(matches!(d.u32s(n), Err(StoreError::Corrupt(_))), "{n}");
            let mut d = Decoder::new(&buf);
            assert!(matches!(d.f64s(n), Err(StoreError::Corrupt(_))), "{n}");
            let mut d = Decoder::new(&buf);
            assert!(matches!(d.lens(n), Err(StoreError::Corrupt(_))), "{n}");
        }
    }

    /// The mask encoding written out flag by flag: the length, then flag
    /// `i` as bit `i % 8` of byte `i / 8`, unused high bits zero.
    fn per_flag_encoding(mask: &[bool]) -> Vec<u8> {
        let mut out = (mask.len() as u64).to_le_bytes().to_vec();
        out.resize(8 + mask.len().div_ceil(8), 0);
        for (i, &up) in mask.iter().enumerate() {
            if up {
                out[8 + i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Checks `put_mask` against the per-flag encoding, and the round trip.
    fn check_mask(mask: &[bool]) {
        let mut buf = Vec::new();
        put_mask(&mut buf, mask);
        assert_eq!(buf, per_flag_encoding(mask), "{} flags", mask.len());
        let mut d = Decoder::new(&buf);
        assert_eq!(d.mask().unwrap(), mask, "{} flags", mask.len());
        d.finish().unwrap();
    }

    #[test]
    fn empty_and_byte_aligned_masks() {
        for n in [0usize, 1, 7, 8, 9, 64] {
            let mask: Vec<bool> = (0..n).map(|i| i % 2 == 1).collect();
            check_mask(&mask);
        }
        // Every length up to past the eighth byte, under patterns that set
        // each bit position of a byte, alone and together.
        for n in 0..=70usize {
            for pattern in [0u64, u64::MAX, 0xA5C3_0F96_1E78_B42D] {
                let mask: Vec<bool> = (0..n).map(|i| pattern >> (i % 64) & 1 == 1).collect();
                check_mask(&mask);
            }
        }
        // A random 1M-flag mask, from a SplitMix64 stream.
        let mut state = 0x6D61_736Bu64;
        let mask: Vec<bool> = (0..1 << 20)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) & 1 == 1
            })
            .collect();
        check_mask(&mask);
    }
}
