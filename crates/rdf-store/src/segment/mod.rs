//! Compressed, immutable, mmap-able index segments.
//!
//! A segment file holds one triple set in all three sorted permutations
//! (SPO, POS, OSP), each as a sequence of delta-compressed blocks with a
//! fence-key directory, so every range scan the in-memory
//! [`TripleIndex`](crate::index::TripleIndex) answers is answered here by a
//! directory binary-search plus a handful of block decodes:
//!
//! ```text
//! header   32 B   magic b"RDFASEG1" | version u32 | block_size u32 |
//!                 count u64 | flags u32 | reserved u32
//! blocks   *      per run (SPO, POS, OSP): concatenated encoded blocks
//! dirs     *      per run: block_count × 28 B directory entries
//!                 fence [u32;3] | off u32 | len u32 | count u32 | crc32 u32
//! trailer  68 B   per run: blocks_off u64 | dir_off u64 | block_count u32
//!                 then meta_crc u32 | magic b"RSG1"
//! ```
//!
//! A block encodes up to [`BLOCK_TRIPLES`] permuted triples: the first one
//! raw (12 bytes LE), the rest as LEB128 varints of the delta between
//! consecutive triples packed into a 96-bit key — sorted distinct triples
//! make every delta ≥ 1, and locality makes most deltas fit 1–3 bytes.
//! Fence keys are each block's first element, so the directory entry for
//! the block containing any probe key is found by binary search.
//!
//! Integrity: `meta_crc` covers the header, all three directories and the
//! trailer prefix, and is verified when the segment is opened (touching
//! only those pages); each block's CRC-32 sits in its directory entry and
//! is verified on first decode — corruption is detected before any decoded
//! triple is served, without reading the whole file up front.
//!
//! Blocks decode on demand into a small per-segment LRU keyed by
//! `(run, block)`, so point lookups and short range scans over a cold
//! store touch a few KiB of file and cache exactly the hot blocks; full
//! scans stream past the cache without evicting them.
//!
//! Limits (v1): each run's block area is addressed by u32 offsets —
//! segments are compacted long before a single run's compressed form
//! nears 4 GiB (≈ 2 G triples at observed ratios).

mod mmap;

use crate::index::{IdTriple, Perm};
use crate::interner::TermId;
use crate::persist::crash::CrashInjector;
use crate::persist::crc::crc32;
use crate::persist::PersistError;
use mmap::Mmap;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub(crate) const MAGIC: &[u8; 8] = b"RDFASEG1";
const TAIL_MAGIC: &[u8; 4] = b"RSG1";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 32;
const DIR_ENTRY_LEN: usize = 28;
const TRAILER_LEN: usize = 68;

/// Triples per full block. 1024 × 12 B decoded ≈ 12 KiB per cache entry;
/// compressed blocks are typically 1–4 KiB.
pub(crate) const BLOCK_TRIPLES: usize = 1024;

/// Decoded-block LRU capacity per segment, in blocks (≈ 3 MiB decoded).
const CACHE_BLOCKS: usize = 256;

#[inline]
fn pack(t: IdTriple) -> u128 {
    ((t[0].0 as u128) << 64) | ((t[1].0 as u128) << 32) | (t[2].0 as u128)
}

#[inline]
fn unpack(k: u128) -> IdTriple {
    [
        TermId((k >> 64) as u32),
        TermId((k >> 32) as u32),
        TermId(k as u32),
    ]
}

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

fn encode_block(buf: &mut Vec<u8>, block: &[IdTriple]) {
    let first = block[0];
    for id in first {
        buf.extend_from_slice(&id.0.to_le_bytes());
    }
    let mut prev = pack(first);
    for &t in &block[1..] {
        let k = pack(t);
        debug_assert!(k > prev, "run must be sorted and distinct");
        put_uvarint(buf, k - prev);
        prev = k;
    }
}

fn decode_block(bytes: &[u8], count: usize) -> Option<Vec<IdTriple>> {
    if count == 0 || bytes.len() < 12 {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    let first = [
        TermId(u32::from_le_bytes(bytes[0..4].try_into().unwrap())),
        TermId(u32::from_le_bytes(bytes[4..8].try_into().unwrap())),
        TermId(u32::from_le_bytes(bytes[8..12].try_into().unwrap())),
    ];
    out.push(first);
    let mut prev = pack(first);
    let mut pos = 12;
    for _ in 1..count {
        let delta = read_uvarint(bytes, &mut pos)?;
        prev = prev.checked_add(delta)?;
        if prev >> 96 != 0 {
            return None;
        }
        out.push(unpack(prev));
    }
    (pos == bytes.len()).then_some(out)
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
}

// ---- writer ---------------------------------------------------------------

/// Write a segment file at `path` from three sorted, distinct, permuted
/// runs of the *same* `count` triples (SPO, POS, OSP element order). The
/// file is not fsynced here — the checkpoint sequence owns durability and
/// rename ordering, exactly as with snapshots. Returns the byte size.
pub(crate) fn write_segment(
    path: &Path,
    count: u64,
    runs: [&mut dyn Iterator<Item = IdTriple>; 3],
    crash: &CrashInjector,
) -> Result<u64, PersistError> {
    let io = |e: std::io::Error| PersistError::Io { context: "segment write", source: e };
    let file = File::create(path).map_err(io)?;
    let mut w = BufWriter::new(file);

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(BLOCK_TRIPLES as u32).to_le_bytes());
    header.extend_from_slice(&count.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes()); // flags
    header.extend_from_slice(&0u32.to_le_bytes()); // reserved
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
            encode_block(&mut enc, &block);
            metas.push(BlockMeta {
                fence: block[0],
                off: u32::try_from(written).map_err(|_| PersistError::Corrupt {
                    what: "segment",
                    detail: "run block area exceeds 4 GiB (v1 limit)".to_owned(),
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

/// A decoded block plus the LRU tick of its last touch.
type CachedBlock = (Arc<Vec<IdTriple>>, u64);

struct BlockCache {
    map: HashMap<(u8, u32), CachedBlock>,
    tick: u64,
}

/// An open, immutable segment: the mmap plus parsed directories and the
/// decoded-block LRU. Cheap to share (`Arc`) between store generations.
pub struct Segment {
    map: Mmap,
    path: PathBuf,
    count: u64,
    runs: [RunDir; 3],
    cache: Mutex<BlockCache>,
    hits: AtomicU64,
    misses: AtomicU64,
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
    /// lazily on first decode.
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
            return Err(PersistError::BadMagic { found: map[..8].to_vec() });
        }
        let u32_at = |i: usize| u32::from_le_bytes(map[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(map[i..i + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion { found: version });
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
            let mut run_total = 0u64;
            let mut prev_end = 0u64;
            for b in 0..block_count {
                let m = BlockMeta::decode(&map[dir_off + b * DIR_ENTRY_LEN..]);
                if m.off as u64 != prev_end
                    || blocks_off + m.off as u64 + m.len as u64 > trailer_off as u64
                {
                    return Err(corrupt(format!("run {r} block {b} extent out of bounds")));
                }
                prev_end = m.off as u64 + m.len as u64;
                run_total += m.count as u64;
                metas.push(m);
            }
            if run_total != count {
                return Err(corrupt(format!(
                    "run {r} holds {run_total} triples, header says {count}"
                )));
            }
            runs.push(RunDir { blocks_off, metas });
        }
        let runs: [RunDir; 3] = runs.try_into().expect("three runs");
        Ok(Segment {
            map,
            path: path.to_owned(),
            count,
            runs,
            cache: Mutex::new(BlockCache { map: HashMap::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
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

    /// Decoded-block cache counters: `(hits, misses)`.
    pub fn cache_counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Blocks currently held decoded in the LRU.
    pub fn cached_blocks(&self) -> usize {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).map.len()
    }

    fn run(&self, perm: Perm) -> &RunDir {
        match perm {
            Perm::Spo => &self.runs[0],
            Perm::Pos => &self.runs[1],
            Perm::Osp => &self.runs[2],
        }
    }

    fn decode_block_at(&self, perm: Perm, idx: usize) -> Vec<IdTriple> {
        let run = self.run(perm);
        let m = run.metas[idx];
        let start = (run.blocks_off + m.off as u64) as usize;
        let bytes = &self.map[start..start + m.len as usize];
        let found = crc32(bytes);
        if found != m.crc {
            panic!(
                "segment {:?}: block {idx} of {perm:?} run failed CRC \
                 (expected {:08x}, found {found:08x}) — file corrupted after open",
                self.path, m.crc
            );
        }
        decode_block(bytes, m.count as usize).unwrap_or_else(|| {
            panic!(
                "segment {:?}: block {idx} of {perm:?} run failed to decode \
                 despite a valid CRC",
                self.path
            )
        })
    }

    /// Fetch a decoded block, through the LRU when `cached` (point/range
    /// reads) or bypassing it for streaming full scans.
    fn block_data(&self, perm: Perm, idx: usize, cached: bool) -> Arc<Vec<IdTriple>> {
        let key = (perm as u8, idx as u32);
        if cached {
            let mut c = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            c.tick += 1;
            let tick = c.tick;
            if let Some((data, t)) = c.map.get_mut(&key) {
                *t = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(data);
            }
        }
        let data = Arc::new(self.decode_block_at(perm, idx));
        if cached {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut c = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            if c.map.len() >= CACHE_BLOCKS {
                if let Some(&evict) =
                    c.map.iter().min_by_key(|(_, (_, t))| *t).map(|(k, _)| k)
                {
                    c.map.remove(&evict);
                }
            }
            c.tick += 1;
            let tick = c.tick;
            c.map.insert(key, (Arc::clone(&data), tick));
        }
        data
    }

    /// Permuted elements ≥ `lo` in `perm` order. `cached` routes block
    /// decodes through the LRU (use for point/range reads; full scans
    /// should bypass so they don't evict the hot set).
    pub(crate) fn scan_from(&self, perm: Perm, lo: IdTriple, cached: bool) -> SegScan<'_> {
        let metas = &self.run(perm).metas;
        if metas.is_empty() {
            return SegScan { seg: self, perm, next_block: 0, cur: None, cached };
        }
        let start = metas.partition_point(|m| m.fence <= lo).saturating_sub(1);
        let data = self.block_data(perm, start, cached);
        let at = data.partition_point(|&t| t < lo);
        SegScan { seg: self, perm, next_block: start + 1, cur: Some((data, at)), cached }
    }

    /// Full scan of one permutation, bypassing the block cache.
    #[cfg(test)]
    pub(crate) fn iter_perm(&self, perm: Perm) -> SegScan<'_> {
        self.scan_from(perm, [TermId(0); 3], false)
    }

    /// Membership test against the SPO run.
    pub(crate) fn contains(&self, t: IdTriple) -> bool {
        let metas = &self.run(Perm::Spo).metas;
        if metas.is_empty() {
            return false;
        }
        let idx = metas.partition_point(|m| m.fence <= t);
        if idx == 0 {
            return false;
        }
        let data = self.block_data(Perm::Spo, idx - 1, true);
        data.binary_search(&t).is_ok()
    }
}

/// Streaming iterator over one permutation's elements from a start key.
pub(crate) struct SegScan<'a> {
    seg: &'a Segment,
    perm: Perm,
    next_block: usize,
    cur: Option<(Arc<Vec<IdTriple>>, usize)>,
    cached: bool,
}

impl Iterator for SegScan<'_> {
    type Item = IdTriple;

    fn next(&mut self) -> Option<IdTriple> {
        loop {
            if let Some((data, idx)) = &mut self.cur {
                if *idx < data.len() {
                    let t = data[*idx];
                    *idx += 1;
                    return Some(t);
                }
                self.cur = None;
            }
            let metas = &self.seg.run(self.perm).metas;
            if self.next_block >= metas.len() {
                return None;
            }
            let data = self.seg.block_data(self.perm, self.next_block, self.cached);
            self.next_block += 1;
            self.cur = Some((data, 0));
        }
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

    fn write_from_index(path: &Path, idx: &TripleIndex) -> u64 {
        let mut spo = idx.iter_perm(Perm::Spo);
        let mut pos = idx.iter_perm(Perm::Pos);
        let mut osp = idx.iter_perm(Perm::Osp);
        write_segment(
            path,
            idx.len() as u64,
            [&mut spo, &mut pos, &mut osp],
            &CrashInjector::off(),
        )
        .unwrap()
    }

    fn rand_index(rng: &mut StdRng, n: usize, space: u32) -> TripleIndex {
        let mut idx = TripleIndex::new();
        for _ in 0..n {
            idx.insert([
                TermId(rng.gen_range(0..space)),
                TermId(rng.gen_range(0..space)),
                TermId(rng.gen_range(0..space)),
            ]);
        }
        idx
    }

    /// Property (the ISSUE's round-trip pin): encode → mmap → decode is
    /// byte-identical to the in-memory index for seeded random stores —
    /// every permutation's full run, random range scans, and membership.
    #[test]
    fn roundtrip_matches_in_memory_index() {
        for case in 0u64..40 {
            let mut rng = StdRng::seed_from_u64(0x5e6_0000 + case);
            let n = rng.gen_range(0..3000);
            let space = [4u32, 64, 1 << 16, u32::MAX - 3][(case % 4) as usize];
            let idx = rand_index(&mut rng, n, space);
            let path = tmpfile("roundtrip");
            write_from_index(&path, &idx);
            let seg = Segment::open(&path).unwrap();
            assert_eq!(seg.len(), idx.len() as u64, "case {case}");
            for perm in Perm::ALL {
                let want: Vec<IdTriple> = idx.iter_perm(perm).collect();
                let got: Vec<IdTriple> = seg.iter_perm(perm).collect();
                assert_eq!(got, want, "case {case} perm {perm:?}");
                // random start keys: scan_from agrees with the index's range
                for _ in 0..8 {
                    let lo = [
                        TermId(rng.gen_range(0..space)),
                        TermId(rng.gen_range(0..space)),
                        TermId(rng.gen_range(0..space)),
                    ];
                    let want: Vec<IdTriple> =
                        idx.scan_perm(perm, lo, MAX3).take(50).collect();
                    let got: Vec<IdTriple> = seg.scan_from(perm, lo, true).take(50).collect();
                    assert_eq!(got, want, "case {case} perm {perm:?} lo {lo:?}");
                }
            }
            for t in idx.iter().take(200) {
                assert!(seg.contains(t));
            }
            for _ in 0..50 {
                let t = [
                    TermId(rng.gen_range(0..space)),
                    TermId(rng.gen_range(0..space)),
                    TermId(rng.gen_range(0..space)),
                ];
                assert_eq!(seg.contains(t), idx.contains(t), "case {case} {t:?}");
            }
            drop(seg);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u128, 1, 127, 128, 300, u64::MAX as u128, (1u128 << 96) - 1];
        for &v in &values {
            buf.clear();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn empty_segment_roundtrips() {
        let idx = TripleIndex::new();
        let path = tmpfile("empty");
        write_from_index(&path, &idx);
        let seg = Segment::open(&path).unwrap();
        assert!(seg.is_empty());
        assert_eq!(seg.iter_perm(Perm::Spo).count(), 0);
        assert!(!seg.contains([TermId(1), TermId(2), TermId(3)]));
        drop(seg);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metadata_corruption_is_detected_at_open() {
        let mut rng = StdRng::seed_from_u64(9);
        let idx = rand_index(&mut rng, 500, 1000);
        let path = tmpfile("corrupt-meta");
        let bytes = write_from_index(&path, &idx);
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
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn block_corruption_is_detected_on_decode() {
        let mut rng = StdRng::seed_from_u64(10);
        let idx = rand_index(&mut rng, 2000, 100_000);
        let path = tmpfile("corrupt-block");
        write_from_index(&path, &idx);
        let mut data = std::fs::read(&path).unwrap();
        data[HEADER_LEN + 40] ^= 0x01; // inside the first SPO block
        std::fs::write(&path, &data).unwrap();
        let seg = Segment::open(&path).expect("metadata still valid");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            seg.iter_perm(Perm::Spo).count()
        }));
        assert!(res.is_err(), "corrupt block must fail loudly");
        drop(seg);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_caps_and_counts() {
        let mut rng = StdRng::seed_from_u64(11);
        let idx = rand_index(&mut rng, 40_000, u32::MAX - 3);
        let path = tmpfile("cache");
        write_from_index(&path, &idx);
        let seg = Segment::open(&path).unwrap();
        let probe: Vec<IdTriple> = idx.iter().step_by(97).collect();
        for &t in &probe {
            assert!(seg.contains(t));
        }
        for &t in &probe {
            assert!(seg.contains(t)); // second pass: mostly hits
        }
        let (hits, misses) = seg.cache_counters();
        assert!(hits > 0 && misses > 0);
        assert!(seg.cached_blocks() <= CACHE_BLOCKS);
        drop(seg);
        std::fs::remove_file(&path).unwrap();
    }
}
