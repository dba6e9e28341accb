//! Compressed, immutable, mmap-able index segments, read where they lie.
//!
//! A segment file holds one triple set in all three sorted permutations
//! (SPO, POS, OSP), each as a sequence of delta-compressed blocks with a
//! fence-key directory. Every range scan the in-memory
//! [`TripleIndex`](crate::index::TripleIndex) answers is answered here by one
//! cursor (`SegScan`) walking the mapped bytes — nothing is decoded into a
//! side buffer, nothing is cached, no lock is taken:
//!
//! ```text
//! header   32 B   magic b"RDFASEG1" | version u32 | block_size u32 |
//!                 count u64 | flags u32 | restart_interval u32
//! blocks   *      per run (SPO, POS, OSP): concatenated blocks, each
//!                   group 0   raw triple 12 B | ≤ R−1 LEB128 deltas
//!                   group 1   raw triple 12 B | ≤ R−1 LEB128 deltas
//!                   …
//!                   offsets   u16 LE × (groups − 1): where groups 1.. start,
//!                             in bytes from the block's first byte
//! dirs     *      per run: block_count × 28 B directory entries
//!                 fence [u32;3] | off u32 | len u32 | count u32 | crc32 u32
//! trailer  68 B   per run: blocks_off u64 | dir_off u64 | block_count u32
//!                 then meta_crc u32 | magic b"RSG1"
//! ```
//!
//! A block holds up to `BLOCK_TRIPLES` permuted triples in *restart
//! groups* of R = `restart_interval`: the group's first triple raw (12
//! bytes LE), the rest as LEB128 varints of the delta between consecutive
//! triples packed into a 96-bit key — sorted distinct triples make every
//! delta ≥ 1, and locality makes most deltas fit 1–3 bytes. A seek is three
//! steps: binary search of the fence keys (each block's first element) for
//! the block, binary search of the raw restart triples through the offset
//! array for the group, then at most R − 1 deltas. Iterating on from there
//! is the same code. How many elements a key range holds is two such seeks
//! plus the directory's per-block counts — no run is walked to count it.
//! Version 1 files — written before restart points — are
//! the case R = `block_size`: one group per block, no offset array, the
//! header's last word 0. The cursor reads them unchanged (a seek then walks
//! up to a whole block), and the next checkpoint that rewrites them writes
//! version 2; there is no migration step and no second decoder.
//!
//! `RESTART_INTERVAL` is 32, from a measured trade at 508k triples (one
//! `(s, p, ?)` probe per subject on the reopened store; file bytes per
//! triple over the whole checkpoint): R = 16 probes in ≈ 405 ns at 37.8 B,
//! R = 32 in ≈ 495 ns at 36.5 B, R = 64 in ≈ 550 ns at 35.9 B, no restarts
//! (v1) in ≈ 3,400 ns at 35.3 B; the in-memory index takes ≈ 300 ns. 32 is
//! the last step that buys speed for less than it costs in bytes (+3.5 %
//! over v1; 16 would be +7 %).
//!
//! Integrity: `meta_crc` covers the header, all three directories and the
//! trailer prefix, and is verified when the segment is opened (touching
//! only those pages). Each block's CRC-32 — over its groups *and* its
//! offset array — sits in its directory entry and is verified the first
//! time a cursor enters the block, before any of its triples is served; a
//! bit per block (`AtomicU64` words per run) records that, so a block is
//! checked once per open however often it is read, and corruption is still
//! detected without reading the whole file up front. The count of set bits
//! is [`Segment::blocks_verified`]: how many blocks reads have touched.
//!
//! Why no decoded-block cache. The first reader decoded whole blocks into
//! an LRU of 256 × 12 KiB `Vec`s behind a mutex. An index-nested-loop join
//! probes ~1,500 blocks in random order to read 1–8 triples from each, so
//! nearly every probe decoded 1,024 triples (≈ 9.7 µs against ≈ 0.5 µs
//! now) and 85 % of execute time over segments was re-decoding. Rejected
//! alternatives: a bigger LRU reaches the same speed only by holding the
//! store decoded — +48 MiB resident at 508k triples, and a size to re-tune
//! per dataset; 32-triple blocks make every seek short but multiply the
//! resident directory by 32 (28 B per entry). Restart points get the short
//! seek for 14 bytes per 32 triples on disk and nothing in memory; the page
//! cache is the only cache.
//!
//! Limits: each run's block area is addressed by u32 offsets — segments
//! are compacted long before a single run's compressed form nears 4 GiB
//! (≈ 2 G triples at observed ratios) — and restart offsets are u16, which
//! a full block of maximal (14-byte) deltas still fits.

mod mmap;

use crate::index::{key, unkey, IdTriple, Perm};
use crate::interner::TermId;
use crate::persist::crash::CrashInjector;
use crate::persist::crc::crc32;
use crate::persist::PersistError;
use mmap::Mmap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) const MAGIC: &[u8; 8] = b"RDFASEG1";
const TAIL_MAGIC: &[u8; 4] = b"RSG1";
/// Version 1: every block is one restart group (interval = block size, the
/// header's last word is 0). Version 2: the interval is that word.
const VERSION: u32 = 2;
const HEADER_LEN: usize = 32;
const DIR_ENTRY_LEN: usize = 28;
const TRAILER_LEN: usize = 68;
const RAW_LEN: usize = 12;
/// Longest LEB128 form of a 96-bit delta.
const MAX_VARINT_LEN: usize = 14;

/// Triples per full block; compressed blocks are typically 2–5 KiB.
pub(crate) const BLOCK_TRIPLES: usize = 1024;

/// Triples per restart group: every `RESTART_INTERVAL`-th triple of a block
/// is stored raw, so a seek decodes at most this many deltas.
pub(crate) const RESTART_INTERVAL: usize = 32;

// restart offsets are u16: the longest possible block must stay addressable
const _: () = assert!(BLOCK_TRIPLES * MAX_VARINT_LEN <= u16::MAX as usize);

#[inline]
fn put_uvarint(buf: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

#[inline]
fn read_uvarint(buf: &[u8], pos: &mut usize) -> Option<u128> {
    let mut v: u128 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u128) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 126 {
            return None;
        }
    }
}

#[inline]
fn read_raw(buf: &[u8], pos: usize) -> Option<IdTriple> {
    let b = buf.get(pos..pos + RAW_LEN)?;
    let u = |i: usize| TermId(u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]));
    Some([u(0), u(4), u(8)])
}

/// Restart groups in a block of `count` triples.
#[inline]
fn groups(count: u32, interval: u32) -> u32 {
    count.div_ceil(interval)
}

/// Append one block: restart groups, then the byte offsets of groups 1.. as
/// u16 LE (group 0 starts at 0, so a single-group block has no array).
fn encode_block(buf: &mut Vec<u8>, block: &[IdTriple], interval: usize) {
    let base = buf.len();
    let mut offsets = Vec::with_capacity(block.len() / interval);
    let mut prev = 0u128;
    for (i, &t) in block.iter().enumerate() {
        let k = key(t);
        if i % interval == 0 {
            if i > 0 {
                offsets.push((buf.len() - base) as u16);
            }
            for id in t {
                buf.extend_from_slice(&id.0.to_le_bytes());
            }
        } else {
            debug_assert!(k > prev, "run must be sorted and distinct");
            put_uvarint(buf, k - prev);
        }
        prev = k;
    }
    for off in offsets {
        buf.extend_from_slice(&off.to_le_bytes());
    }
}

/// One run's directory entry: the block's first element (fence), its byte
/// extent within the run's block area, its triple count, and its CRC-32.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    fence: IdTriple,
    off: u32,
    len: u32,
    count: u32,
    crc: u32,
}

impl BlockMeta {
    fn encode(&self, buf: &mut Vec<u8>) {
        for id in self.fence {
            buf.extend_from_slice(&id.0.to_le_bytes());
        }
        buf.extend_from_slice(&self.off.to_le_bytes());
        buf.extend_from_slice(&self.len.to_le_bytes());
        buf.extend_from_slice(&self.count.to_le_bytes());
        buf.extend_from_slice(&self.crc.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> BlockMeta {
        let u = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        BlockMeta {
            fence: [TermId(u(0)), TermId(u(4)), TermId(u(8))],
            off: u(12),
            len: u(16),
            count: u(20),
            crc: u(24),
        }
    }
}

#[derive(Debug)]
struct RunDir {
    /// Absolute file offset of this run's block area.
    blocks_off: u64,
    metas: Vec<BlockMeta>,
    /// Per block, the triples in the blocks before it: the directory's
    /// counts summed once at open, so a rank is one lookup.
    starts: Vec<u64>,
    /// One bit per block, set once its CRC has been checked since open.
    verified: Vec<AtomicU64>,
}

// ---- writer ---------------------------------------------------------------

/// Write a segment file at `path` from three sorted, distinct, permuted
/// runs of the *same* `count` triples (SPO, POS, OSP element order). The
/// file is not fsynced here — the checkpoint sequence owns durability and
/// rename ordering. Returns the byte size.
pub(crate) fn write_segment(
    path: &Path,
    count: u64,
    runs: [&mut dyn Iterator<Item = IdTriple>; 3],
    crash: &CrashInjector,
) -> Result<u64, PersistError> {
    write_segment_with(path, count, runs, RESTART_INTERVAL, crash)
}

/// [`write_segment`] with the restart interval spelled out. Production
/// writes [`RESTART_INTERVAL`]; `interval == BLOCK_TRIPLES` produces the
/// version-1 layout byte for byte, which tests use as their v1 fixture.
pub(crate) fn write_segment_with(
    path: &Path,
    count: u64,
    runs: [&mut dyn Iterator<Item = IdTriple>; 3],
    interval: usize,
    crash: &CrashInjector,
) -> Result<u64, PersistError> {
    assert!((1..=BLOCK_TRIPLES).contains(&interval), "restart interval {interval}");
    let io = |e: std::io::Error| PersistError::Io { context: "segment write", source: e };
    let file = File::create(path).map_err(io)?;
    let mut w = BufWriter::new(file);

    let (version, interval_word) = if interval == BLOCK_TRIPLES {
        (1u32, 0u32)
    } else {
        (VERSION, interval as u32)
    };
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&version.to_le_bytes());
    header.extend_from_slice(&(BLOCK_TRIPLES as u32).to_le_bytes());
    header.extend_from_slice(&count.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes()); // flags
    header.extend_from_slice(&interval_word.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);
    w.write_all(&header).map_err(io)?;
    crash.check("segment.header")?;

    let mut pos = HEADER_LEN as u64;
    let mut dirs: Vec<(u64, Vec<BlockMeta>)> = Vec::with_capacity(3);
    let mut enc = Vec::with_capacity(4 * BLOCK_TRIPLES);
    let mut block = Vec::with_capacity(BLOCK_TRIPLES);
    for (run_idx, run) in runs.into_iter().enumerate() {
        let blocks_off = pos;
        let mut metas: Vec<BlockMeta> = Vec::new();
        let mut written: u64 = 0;
        let mut run_count: u64 = 0;
        loop {
            block.clear();
            while block.len() < BLOCK_TRIPLES {
                match run.next() {
                    Some(t) => block.push(t),
                    None => break,
                }
            }
            if block.is_empty() {
                break;
            }
            run_count += block.len() as u64;
            enc.clear();
            encode_block(&mut enc, &block, interval);
            metas.push(BlockMeta {
                fence: block[0],
                off: u32::try_from(written).map_err(|_| PersistError::Corrupt {
                    what: "segment",
                    detail: "run block area exceeds 4 GiB (format limit)".to_owned(),
                })?,
                len: enc.len() as u32,
                count: block.len() as u32,
                crc: crc32(&enc),
            });
            if run_idx == 0 && metas.len() == 1 {
                // a tear in the middle of the very first block
                let half = enc.len() / 2;
                w.write_all(&enc[..half]).map_err(io)?;
                crash.check("segment.torn-block")?;
                w.write_all(&enc[half..]).map_err(io)?;
            } else {
                w.write_all(&enc).map_err(io)?;
            }
            written += enc.len() as u64;
        }
        if run_count != count {
            return Err(PersistError::Corrupt {
                what: "segment",
                detail: format!("run {run_idx} yielded {run_count} triples, expected {count}"),
            });
        }
        pos += written;
        dirs.push((blocks_off, metas));
    }

    // directories, then the trailer; meta_crc covers header + dirs + trailer prefix
    let mut meta_bytes = header;
    let mut trailer = Vec::with_capacity(TRAILER_LEN);
    let mut dir_pos = pos;
    for (blocks_off, metas) in &dirs {
        let mut dir_buf = Vec::with_capacity(metas.len() * DIR_ENTRY_LEN);
        for m in metas {
            m.encode(&mut dir_buf);
        }
        w.write_all(&dir_buf).map_err(io)?;
        trailer.extend_from_slice(&blocks_off.to_le_bytes());
        trailer.extend_from_slice(&dir_pos.to_le_bytes());
        trailer.extend_from_slice(&(metas.len() as u32).to_le_bytes());
        dir_pos += dir_buf.len() as u64;
        meta_bytes.extend_from_slice(&dir_buf);
    }
    meta_bytes.extend_from_slice(&trailer);
    let meta_crc = crc32(&meta_bytes);
    trailer.extend_from_slice(&meta_crc.to_le_bytes());
    trailer.extend_from_slice(TAIL_MAGIC);
    debug_assert_eq!(trailer.len(), TRAILER_LEN);
    w.write_all(&trailer).map_err(io)?;
    w.flush().map_err(io)?;
    crash.check("segment.written")?;
    Ok(dir_pos + TRAILER_LEN as u64)
}

// ---- reader ---------------------------------------------------------------

/// An open, immutable segment: the mmap, the parsed directories and the
/// verified-block bits. Cheap to share (`Arc`) between store generations.
pub struct Segment {
    map: Mmap,
    path: PathBuf,
    count: u64,
    /// Triples per restart group (the block size for a version-1 file).
    interval: u32,
    runs: [RunDir; 3],
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("path", &self.path)
            .field("triples", &self.count)
            .field("bytes", &self.map.len())
            .finish()
    }
}

impl Segment {
    /// Open and validate a segment file: mmap it, parse the trailer and
    /// directories, verify the metadata CRC. Block payloads are verified
    /// lazily, the first time a cursor enters them.
    pub fn open(path: &Path) -> Result<Segment, PersistError> {
        let io = |e: std::io::Error| PersistError::Io { context: "segment open", source: e };
        let file = File::open(path).map_err(io)?;
        let map = Mmap::map(&file).map_err(io)?;
        let corrupt = |detail: String| PersistError::Corrupt { what: "segment", detail };
        let n = map.len();
        if n < HEADER_LEN + TRAILER_LEN {
            return Err(corrupt(format!("file too small ({n} bytes)")));
        }
        if &map[..8] != MAGIC {
            return Err(PersistError::BadMagic {
                what: "segment",
                found: map[..8].to_vec(),
            });
        }
        let u32_at = |i: usize| u32::from_le_bytes(map[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(map[i..i + 8].try_into().unwrap());
        let block_size = u32_at(12);
        let interval = match u32_at(8) {
            1 => block_size,
            VERSION => u32_at(28),
            version => {
                return Err(PersistError::UnsupportedVersion {
                    what: "segment",
                    found: version,
                })
            }
        };
        if interval == 0 || interval > block_size {
            return Err(corrupt(format!(
                "restart interval {interval} outside 1..={block_size}"
            )));
        }
        let count = u64_at(16);
        let trailer_off = n - TRAILER_LEN;
        if &map[n - 4..] != TAIL_MAGIC {
            return Err(corrupt("missing trailer magic".to_owned()));
        }
        let expected_crc = u32_at(n - 8);

        // parse the run table, bounds-check, and re-derive the metadata CRC
        let mut meta_bytes = map[..HEADER_LEN].to_vec();
        let mut run_specs = Vec::with_capacity(3);
        for r in 0..3 {
            let base = trailer_off + r * 20;
            let blocks_off = u64_at(base);
            let dir_off = u64_at(base + 8);
            let block_count = u32_at(base + 16) as usize;
            let dir_len = block_count
                .checked_mul(DIR_ENTRY_LEN)
                .ok_or_else(|| corrupt("directory length overflow".to_owned()))?;
            let dir_end = (dir_off as usize)
                .checked_add(dir_len)
                .filter(|&e| e <= trailer_off && dir_off as usize >= HEADER_LEN)
                .ok_or_else(|| corrupt(format!("run {r} directory out of bounds")))?;
            meta_bytes.extend_from_slice(&map[dir_off as usize..dir_end]);
            run_specs.push((blocks_off, dir_off as usize, block_count));
        }
        meta_bytes.extend_from_slice(&map[trailer_off..trailer_off + 60]);
        let found_crc = crc32(&meta_bytes);
        if found_crc != expected_crc {
            return Err(PersistError::Checksum {
                what: "segment metadata",
                expected: expected_crc,
                found: found_crc,
            });
        }

        let mut runs = Vec::with_capacity(3);
        for (r, (blocks_off, dir_off, block_count)) in run_specs.into_iter().enumerate() {
            let mut metas = Vec::with_capacity(block_count);
            let mut starts = Vec::with_capacity(block_count);
            let mut run_total = 0u64;
            let mut prev_end = 0u64;
            for b in 0..block_count {
                let m = BlockMeta::decode(&map[dir_off + b * DIR_ENTRY_LEN..]);
                if m.off as u64 != prev_end
                    || blocks_off + m.off as u64 + m.len as u64 > trailer_off as u64
                {
                    return Err(corrupt(format!("run {r} block {b} extent out of bounds")));
                }
                // the shortest encoding of `count` triples: raw restarts,
                // one-byte deltas, the offset array — a cursor may then
                // slice the array off the block's end without underflow
                let g = groups(m.count, interval) as u64;
                if m.count == 0
                    || m.count > block_size
                    || (m.len as u64) < g * RAW_LEN as u64 + (m.count as u64 - g) + 2 * (g - 1)
                {
                    return Err(corrupt(format!(
                        "run {r} block {b}: {} bytes cannot hold {} triples",
                        m.len, m.count
                    )));
                }
                prev_end = m.off as u64 + m.len as u64;
                starts.push(run_total);
                run_total += m.count as u64;
                metas.push(m);
            }
            if run_total != count {
                return Err(corrupt(format!(
                    "run {r} holds {run_total} triples, header says {count}"
                )));
            }
            let verified = (0..block_count.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
            runs.push(RunDir { blocks_off, metas, starts, verified });
        }
        let runs: [RunDir; 3] = runs.try_into().expect("three runs");
        Ok(Segment { map, path: path.to_owned(), count, interval, runs })
    }

    /// Number of triples.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when the segment holds no triples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// On-disk (mapped) size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when the file is served by an OS memory mapping (pages fault in
    /// on demand) rather than an eagerly-read copy.
    pub fn is_os_mapping(&self) -> bool {
        self.map.is_os_mapping()
    }

    /// Blocks across the three runs.
    pub fn blocks(&self) -> usize {
        self.runs.iter().map(|r| r.metas.len()).sum()
    }

    /// Blocks whose CRC has been checked — i.e. that some read has entered —
    /// since this segment was opened.
    pub fn blocks_verified(&self) -> usize {
        self.runs
            .iter()
            .flat_map(|r| &r.verified)
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Triples per restart group.
    #[cfg(test)]
    pub(crate) fn restart_interval(&self) -> usize {
        self.interval as usize
    }

    fn run(&self, perm: Perm) -> &RunDir {
        match perm {
            Perm::Spo => &self.runs[0],
            Perm::Pos => &self.runs[1],
            Perm::Osp => &self.runs[2],
        }
    }

    /// The mapped bytes of block `idx`, CRC-checked the first time any
    /// reader asks for them.
    fn block_bytes(&self, perm: Perm, idx: usize) -> &[u8] {
        let run = self.run(perm);
        let m = &run.metas[idx];
        let start = (run.blocks_off + m.off as u64) as usize;
        let bytes = &self.map[start..start + m.len as usize];
        // Relaxed: the bit publishes nothing — the bytes are immutable, and
        // a reader that misses another thread's bit only repeats the check.
        let (word, bit) = (&run.verified[idx / 64], 1u64 << (idx % 64));
        if word.load(Ordering::Relaxed) & bit == 0 {
            let found = crc32(bytes);
            if found != m.crc {
                panic!(
                    "segment {:?}: block {idx} of {perm:?} run failed CRC \
                     (expected {:08x}, found {found:08x}) — file corrupted after open",
                    self.path, m.crc
                );
            }
            word.fetch_or(bit, Ordering::Relaxed);
        }
        bytes
    }

    /// Cursor over `perm`'s elements ≥ `lo`, ascending: fence binary search
    /// for the block, restart binary search for the group, then at most one
    /// group of deltas.
    pub(crate) fn scan_from(&self, perm: Perm, lo: IdTriple) -> SegScan<'_> {
        let metas = &self.run(perm).metas;
        let block = metas.partition_point(|m| m.fence <= lo).saturating_sub(1);
        let mut scan = self.cursor(perm, block);
        if scan.enter_next_block() {
            scan.seek_group(lo);
        }
        scan.advance();
        while scan.head.is_some_and(|h| h < lo) {
            scan.advance();
        }
        scan
    }

    /// A cursor before block `block` of `perm`'s run, not yet in it.
    fn cursor(&self, perm: Perm, block: usize) -> SegScan<'_> {
        SegScan {
            seg: self,
            perm,
            next_block: block,
            bytes: &[],
            pos: 0,
            left: 0,
            to_restart: 0,
            head: None,
        }
    }

    /// How many of `perm`'s elements are `< key` (`inclusive`: `<= key`).
    /// The directory's counts cover every block before the one the fences
    /// put the boundary in; inside that block the cursor seeks as a scan
    /// does — so the block is CRC-checked before any of it is read — and
    /// counts at most one restart group's elements.
    fn rank(&self, perm: Perm, key: IdTriple, inclusive: bool) -> u64 {
        let below = |t: IdTriple| if inclusive { t <= key } else { t < key };
        let run = self.run(perm);
        let Some(block) = run.metas.partition_point(|m| below(m.fence)).checked_sub(1) else {
            return 0;
        };
        let mut scan = self.cursor(perm, block);
        scan.enter_next_block();
        let count = scan.left;
        scan.seek_group(key);
        let mut n = count - scan.left;
        while scan.left > 0 {
            scan.advance();
            if !scan.head.is_some_and(below) {
                break;
            }
            n += 1;
        }
        run.starts[block] + u64::from(n)
    }

    /// Number of `perm`'s elements in `lo..=hi`, read by position.
    pub(crate) fn run_len(&self, perm: Perm, lo: IdTriple, hi: IdTriple) -> usize {
        if lo > hi {
            return 0;
        }
        (self.rank(perm, hi, true) - self.rank(perm, lo, false)) as usize
    }

    /// Full scan of one permutation.
    #[cfg(test)]
    pub(crate) fn iter_perm(&self, perm: Perm) -> SegScan<'_> {
        self.scan_from(perm, [TermId(0); 3])
    }

    /// Membership test against the SPO run.
    pub(crate) fn contains(&self, t: IdTriple) -> bool {
        self.scan_from(Perm::Spo, t).head == Some(t)
    }
}

/// A cursor over one permutation's elements, decoding in place from the
/// mapped bytes. It always sits *on* an element ([`SegScan::head`]), so a
/// k-way merge can compare heads without a side buffer; as an `Iterator` it
/// yields the head and moves on.
pub(crate) struct SegScan<'a> {
    seg: &'a Segment,
    perm: Perm,
    /// Index of the block after the current one.
    next_block: usize,
    /// The current block: restart groups, then the group-offset array.
    bytes: &'a [u8],
    /// Read position in `bytes`: the encoding of the element after `head`.
    pos: usize,
    /// Elements of the current block at or after `pos`.
    left: u32,
    /// Deltas before the next raw element (0: a raw element is next).
    to_restart: u32,
    head: Option<IdTriple>,
}

impl SegScan<'_> {
    /// The element under the cursor; `None` once the run is exhausted.
    #[inline]
    pub(crate) fn head(&self) -> Option<IdTriple> {
        self.head
    }

    /// Position before the first element of block `next_block`; false when
    /// the run has no such block.
    fn enter_next_block(&mut self) -> bool {
        let Some(m) = self.seg.run(self.perm).metas.get(self.next_block) else {
            return false;
        };
        self.bytes = self.seg.block_bytes(self.perm, self.next_block);
        self.next_block += 1;
        self.pos = 0;
        self.left = m.count;
        self.to_restart = 0;
        true
    }

    /// Within the block just entered, position before the last restart
    /// element ≤ `lo` (the first one when all are greater).
    fn seek_group(&mut self, lo: IdTriple) {
        let interval = self.seg.interval;
        let count = self.left;
        let n = groups(count, interval) as usize;
        let table = self.bytes.len() - 2 * (n - 1);
        let offset = |g: usize| match g {
            0 => 0,
            _ => {
                let at = table + 2 * (g - 1);
                u16::from_le_bytes([self.bytes[at], self.bytes[at + 1]]) as usize
            }
        };
        // invariant: group `at`'s restart element ≤ lo (or at == 0)
        let (mut at, mut end) = (0usize, n);
        while end - at > 1 {
            let mid = at + (end - at) / 2;
            match read_raw(self.bytes, offset(mid)) {
                Some(t) if t <= lo => at = mid,
                Some(_) => end = mid,
                None => self.malformed(),
            }
        }
        self.pos = offset(at);
        self.left = count - at as u32 * interval;
    }

    /// Move to the next element, entering the next block when this one is
    /// spent.
    #[inline]
    pub(crate) fn advance(&mut self) {
        if self.left == 0 && !self.enter_next_block() {
            self.head = None;
            return;
        }
        self.left -= 1;
        let next = if self.to_restart == 0 {
            self.to_restart = self.seg.interval - 1;
            let raw = read_raw(self.bytes, self.pos);
            self.pos += RAW_LEN;
            raw
        } else {
            self.to_restart -= 1;
            match (self.head, read_uvarint(self.bytes, &mut self.pos)) {
                (Some(prev), Some(delta)) => {
                    let k = key(prev) + delta;
                    (k >> 96 == 0).then(|| unkey(k))
                }
                _ => None,
            }
        };
        if next.is_none() {
            self.malformed();
        }
        self.head = next;
    }

    #[cold]
    fn malformed(&self) -> ! {
        panic!(
            "segment {:?}: block {} of {:?} run failed to decode despite a valid CRC",
            self.seg.path,
            self.next_block - 1,
            self.perm
        )
    }
}

impl Iterator for SegScan<'_> {
    type Item = IdTriple;

    #[inline]
    fn next(&mut self) -> Option<IdTriple> {
        let head = self.head?;
        self.advance();
        Some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TripleIndex;
    use crate::layer::MAX3;
    use rdfa_prng::StdRng;

    fn tmpfile(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "rdfa-seg-{}-{}-{}.seg",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::SeqCst)
        ))
    }

    fn write_from_index(path: &Path, idx: &TripleIndex, interval: usize) -> u64 {
        let mut spo = idx.iter_perm(Perm::Spo);
        let mut pos = idx.iter_perm(Perm::Pos);
        let mut osp = idx.iter_perm(Perm::Osp);
        write_segment_with(
            path,
            idx.len() as u64,
            [&mut spo, &mut pos, &mut osp],
            interval,
            &CrashInjector::off(),
        )
        .unwrap()
    }

    fn rand_triple(rng: &mut StdRng, space: u32) -> IdTriple {
        [
            TermId(rng.gen_range(0..space)),
            TermId(rng.gen_range(0..space)),
            TermId(rng.gen_range(0..space)),
        ]
    }

    fn rand_index(rng: &mut StdRng, n: usize, space: u32) -> TripleIndex {
        let mut idx = TripleIndex::new();
        for _ in 0..n {
            idx.insert(rand_triple(rng, space));
        }
        idx
    }

    /// Start keys around every place a seek changes course in a sorted
    /// `run`: below the first key and above the last, and at each restart
    /// (hence each block boundary) the element, its neighbours, each of
    /// those ± 1 in key space, and a key from the middle of the group.
    fn boundary_keys(run: &[IdTriple], interval: usize) -> Vec<IdTriple> {
        let mut keys = vec![[TermId(0); 3], MAX3];
        let mut around = |t: IdTriple| {
            let k = key(t);
            keys.push(t);
            keys.extend(k.checked_sub(1).map(unkey));
            keys.extend(Some(k + 1).filter(|k| k >> 96 == 0).map(unkey));
        };
        for at in (0..run.len()).step_by(interval) {
            for &t in &run[at.saturating_sub(1)..(at + 2).min(run.len())] {
                around(t);
            }
            around(run[(at + interval / 2).min(run.len() - 1)]);
        }
        around(*run.last().expect("non-empty run"));
        keys
    }

    /// Every read the segment offers against the in-memory index holding
    /// the same triples.
    fn assert_reads_match(seg: &Segment, idx: &TripleIndex, rng: &mut StdRng, space: u32, what: &str) {
        assert_eq!(seg.len(), idx.len() as u64, "{what}");
        for perm in Perm::ALL {
            let want: Vec<IdTriple> = idx.iter_perm(perm).collect();
            let got: Vec<IdTriple> = seg.iter_perm(perm).collect();
            assert_eq!(got, want, "{what} perm {perm:?}");
            let mut starts: Vec<IdTriple> = (0..8).map(|_| rand_triple(rng, space)).collect();
            if !want.is_empty() {
                starts.extend(boundary_keys(&want, seg.restart_interval()));
            }
            // long enough to run from one restart group into the next
            let take = RESTART_INTERVAL + 3;
            for (i, &lo) in starts.iter().enumerate() {
                let want: Vec<IdTriple> = idx.scan_perm(perm, lo, MAX3).take(take).collect();
                let got: Vec<IdTriple> = seg.scan_from(perm, lo).take(take).collect();
                assert_eq!(got, want, "{what} perm {perm:?} lo {lo:?}");
                if perm == Perm::Spo {
                    assert_eq!(seg.contains(lo), idx.contains(lo), "{what} contains {lo:?}");
                }
                // ranges ending at every other start key, empty and inverted ones included
                for hi in [lo, starts[(i + 1) % starts.len()], starts[(i + 7) % starts.len()], MAX3] {
                    let want = idx.scan_perm(perm, lo, hi).len();
                    assert_eq!(seg.run_len(perm, lo, hi), want, "{what} perm {perm:?} {lo:?}..={hi:?}");
                }
            }
        }
        for _ in 0..50 {
            let t = rand_triple(rng, space);
            assert_eq!(seg.contains(t), idx.contains(t), "{what} {t:?}");
        }
    }

    /// Property (the ISSUE's round-trip pin): encode → mmap → in-place
    /// cursor is identical to the in-memory index for seeded random stores —
    /// every permutation's full run, membership, and scans started at random
    /// keys and around every restart and block boundary. Small cases sweep
    /// id-space shapes; every eighth spans ≥ 20 blocks with a ragged last
    /// one. Each case is read in the restart layout and in the version-1
    /// layout (interval = block size) through the same cursor.
    #[test]
    fn roundtrip_matches_in_memory_index() {
        for case in 0u64..40 {
            let mut rng = StdRng::seed_from_u64(0x5e6_0000 + case);
            let large = case % 8 == 7;
            let n = if large {
                20 * BLOCK_TRIPLES + rng.gen_range(1..900usize)
            } else {
                rng.gen_range(0..3000usize)
            };
            // large cases: a dense space (most ± 1 neighbours present), a
            // sparse one (most absent), and the top of the id range
            let space = if large {
                [40u32, 1 << 16, u32::MAX - 3][(case / 8 % 3) as usize]
            } else {
                [4u32, 64, 1 << 16, u32::MAX - 3][(case % 4) as usize]
            };
            let mut idx = rand_index(&mut rng, n, space);
            while large && idx.len() < n {
                idx.insert(rand_triple(&mut rng, space));
            }
            for interval in [RESTART_INTERVAL, BLOCK_TRIPLES] {
                let path = tmpfile("roundtrip");
                write_from_index(&path, &idx, interval);
                let seg = Segment::open(&path).unwrap();
                assert_eq!(seg.restart_interval(), interval);
                if large {
                    assert!(seg.blocks() >= 3 * 21, "case {case}: {} blocks", seg.blocks());
                    assert_ne!(idx.len() % BLOCK_TRIPLES, 0, "case {case}: ragged last block");
                }
                assert_reads_match(&seg, &idx, &mut rng, space, &format!("case {case} interval {interval}"));
                assert_eq!(seg.blocks_verified(), seg.blocks(), "case {case}: full scans enter every block");
                drop(seg);
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    /// The parent format: version 1, last header word 0, no offset arrays.
    /// It is the interval = block-size case of the one layout, so the same
    /// cursor reads it (`roundtrip_matches_in_memory_index` checks the
    /// answers) — pinned here byte for byte against the v1 block encoding.
    #[test]
    fn v1_layout_is_the_block_size_interval() {
        let mut rng = StdRng::seed_from_u64(12);
        let idx = rand_index(&mut rng, 2500, 1 << 16);
        let path = tmpfile("v1");
        write_from_index(&path, &idx, BLOCK_TRIPLES);
        let data = std::fs::read(&path).unwrap();
        assert_eq!(data[8..12], 1u32.to_le_bytes(), "version");
        assert_eq!(data[28..32], 0u32.to_le_bytes(), "reserved word");
        // v1 block: first triple raw, every other one a delta, nothing after
        let run: Vec<IdTriple> = idx.iter_perm(Perm::Spo).collect();
        let mut want = Vec::new();
        for block in run.chunks(BLOCK_TRIPLES) {
            for id in block[0] {
                want.extend_from_slice(&id.0.to_le_bytes());
            }
            for w in block.windows(2) {
                put_uvarint(&mut want, key(w[1]) - key(w[0]));
            }
        }
        assert_eq!(data[HEADER_LEN..HEADER_LEN + want.len()], want[..]);
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.restart_interval(), BLOCK_TRIPLES);
        drop(seg);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u128, 1, 127, 128, 300, u64::MAX as u128, (1u128 << 96) - 1];
        for &v in &values {
            buf.clear();
            put_uvarint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn empty_segment_roundtrips() {
        let idx = TripleIndex::new();
        let path = tmpfile("empty");
        write_from_index(&path, &idx, RESTART_INTERVAL);
        let seg = Segment::open(&path).unwrap();
        assert!(seg.is_empty());
        assert_eq!(seg.iter_perm(Perm::Spo).count(), 0);
        assert!(!seg.contains([TermId(1), TermId(2), TermId(3)]));
        drop(seg);
        std::fs::remove_file(&path).unwrap();
    }

    /// Corruption never mis-answers: flip one byte anywhere in a
    /// multi-block segment and every outcome is `open` → `Err`, a read that
    /// panics with the block-CRC message, or an answer identical to the
    /// oracle's. Positions: every header and trailer byte, every restart
    /// offset array and directory of a few blocks, and 500 seeded ones.
    #[test]
    fn one_flipped_byte_never_changes_an_answer() {
        let mut rng = StdRng::seed_from_u64(0xc0_77u64);
        let idx = rand_index(&mut rng, 3 * BLOCK_TRIPLES + 300, 1 << 12);
        let path = tmpfile("flip");
        let file_len = write_from_index(&path, &idx, RESTART_INTERVAL) as usize;
        let clean = std::fs::read(&path).unwrap();
        assert_eq!(clean.len(), file_len);

        // the file's regions, read off the clean segment's directories
        let seg = Segment::open(&path).unwrap();
        let meta_start = seg.runs.iter().map(|r| r.blocks_off as usize).max().unwrap()
            + seg.runs[2].metas.iter().map(|m| m.len as usize).sum::<usize>();
        let mut positions: Vec<usize> = (0..HEADER_LEN).chain(file_len - TRAILER_LEN..file_len).collect();
        for run in &seg.runs {
            for m in [&run.metas[0], run.metas.last().unwrap()] {
                let end = run.blocks_off as usize + (m.off + m.len) as usize;
                let table = 2 * (groups(m.count, seg.interval) as usize - 1);
                positions.extend(end - table..end);
            }
        }
        positions.extend((meta_start..file_len - TRAILER_LEN).step_by(5));
        positions.extend((0..500).map(|_| rng.gen_range(0..file_len)));
        drop(seg);

        let probes: Vec<IdTriple> = (0..12).map(|_| rand_triple(&mut rng, 1 << 12)).collect();
        let crc_panic = |e: Box<dyn std::any::Any + Send>| {
            let msg = e.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("failed CRC"), "unexpected panic: {msg}");
        };
        let (mut refused, mut caught) = (0, 0);
        for &at in &positions {
            let mut data = clean.clone();
            data[at] ^= 1u8 << rng.gen_range(0..8u32);
            std::fs::write(&path, &data).unwrap();
            let in_blocks = (HEADER_LEN..meta_start).contains(&at);
            let seg = match Segment::open(&path) {
                Err(_) => {
                    assert!(!in_blocks, "byte {at}: a block flip must not fail open");
                    refused += 1;
                    continue;
                }
                Ok(seg) => seg,
            };
            assert!(in_blocks, "byte {at}: a metadata flip must fail open");
            let mut panicked = false;
            let mut read = |f: &dyn Fn() -> bool| {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                    Ok(same) => assert!(same, "byte {at}: wrong answer"),
                    Err(e) => {
                        crc_panic(e);
                        panicked = true;
                    }
                }
            };
            for perm in Perm::ALL {
                read(&|| seg.iter_perm(perm).eq(idx.iter_perm(perm)));
                for (i, &lo) in probes.iter().enumerate() {
                    read(&|| seg.scan_from(perm, lo).take(40).eq(idx.scan_perm(perm, lo, MAX3).take(40)));
                    let hi = probes[(i + 1) % probes.len()];
                    read(&|| seg.run_len(perm, lo, hi) == idx.scan_perm(perm, lo, hi).len());
                }
            }
            for &t in &probes {
                read(&|| seg.contains(t) == idx.contains(t));
            }
            assert!(panicked, "byte {at}: CRC-32 catches every one-byte change");
            caught += 1;
        }
        assert!(refused >= 100 && caught >= 400, "refused {refused}, caught {caught}");
        std::fs::remove_file(&path).unwrap();
    }

    /// A block's CRC runs once per open, before its first triple is served,
    /// and `blocks_verified` counts exactly the blocks entered.
    #[test]
    fn blocks_are_verified_once_and_counted() {
        let mut rng = StdRng::seed_from_u64(11);
        let idx = rand_index(&mut rng, 40_000, u32::MAX - 3);
        let path = tmpfile("verify");
        write_from_index(&path, &idx, RESTART_INTERVAL);
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.blocks(), 3 * 40_000usize.div_ceil(BLOCK_TRIPLES));
        assert_eq!(seg.blocks_verified(), 0, "open reads no block");
        let first = idx.iter().next().unwrap();
        assert!(seg.contains(first));
        assert_eq!(seg.blocks_verified(), 1);
        assert!(seg.contains(first));
        assert_eq!(seg.blocks_verified(), 1, "a re-read does not re-verify");
        assert_eq!(seg.iter_perm(Perm::Spo).count(), idx.len());
        assert_eq!(seg.blocks_verified(), seg.blocks() / 3);
        drop(seg);

        // a block damaged after open is refused on first entry — and a
        // verified one is trusted from then on
        let mut data = std::fs::read(&path).unwrap();
        data[HEADER_LEN + 40] ^= 0x01; // inside the first SPO block
        std::fs::write(&path, &data).unwrap();
        let seg = Segment::open(&path).expect("metadata still valid");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            seg.iter_perm(Perm::Spo).count()
        }));
        assert!(res.is_err(), "corrupt block must fail loudly");
        assert_eq!(seg.iter_perm(Perm::Pos).count(), idx.len(), "other runs still serve");
        drop(seg);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metadata_corruption_is_detected_at_open() {
        let mut rng = StdRng::seed_from_u64(9);
        let idx = rand_index(&mut rng, 500, 1000);
        let path = tmpfile("corrupt-meta");
        let bytes = write_from_index(&path, &idx, RESTART_INTERVAL);
        // flip a byte in the trailer (last 68 bytes)
        let mut data = std::fs::read(&path).unwrap();
        assert_eq!(data.len() as u64, bytes);
        let at = data.len() - 30;
        data[at] ^= 0x10;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            Segment::open(&path),
            Err(PersistError::Checksum { .. }) | Err(PersistError::Corrupt { .. })
        ));
        // a foreign file and a future version are refused by name
        let mut data = std::fs::read(&path).unwrap();
        data[0] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let err = Segment::open(&path).unwrap_err().to_string();
        assert!(err.starts_with("not a segment file"), "{err}");
        data[0] ^= 0x01;
        data[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = Segment::open(&path).unwrap_err().to_string();
        assert_eq!(err, "unsupported segment version 99");
        std::fs::remove_file(&path).unwrap();
    }
}
