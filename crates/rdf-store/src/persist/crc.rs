//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) — the checksum
//! guarding every WAL record, manifest, segment directory and block, and
//! term chunk. Implemented locally so the durability layer adds no
//! dependencies.
//!
//! Uses slicing-by-8: eight derived tables let the hot loop fold eight input
//! bytes per iteration with independent lookups instead of a one-byte carry
//! chain, which matters because restart-critical paths (term chunks, segment
//! metadata) checksum megabytes. The tables are built once on first use.

use std::sync::OnceLock;

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // the classic check value for the IEEE polynomial
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"hello durable world".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    /// The sliced fold must agree with the canonical byte-serial definition
    /// at every length, including non-multiple-of-8 tails.
    #[test]
    fn matches_byte_serial_reference_at_all_alignments() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
            }
            c ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(131).wrapping_add(i >> 3)) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }
}
