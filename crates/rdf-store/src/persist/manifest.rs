//! The segment manifest: the root of a checkpoint generation.
//!
//! Every checkpointed generation is described by `segments.<g>.txt` — a
//! small, CRC-sealed ASCII file naming every immutable file the generation
//! is built from:
//!
//! ```text
//! RDFAMAN1
//! terms <total term count>
//! chunk <file> <from> <count>     # zero or more, contiguous from 0
//! seg <file>                      # zero or more, explicit layer, stack order
//! inf <file>                      # optional persisted RDFS closure
//! crc <8 hex digits>              # CRC-32 of every preceding byte
//! ```
//!
//! Term chunks (`terms.<from>-<to>.tbl`) are immutable binary files in the
//! term wire format of [`super::term_codec`]; because term ids are append-only, a new
//! checkpoint writes only the chunk of terms interned *since the previous
//! manifest* and re-references the older chunks — the dictionary half of
//! structural sharing. Segment files are shared the same way: an unchanged
//! base segment is named by consecutive manifests and never rewritten.
//!
//! The manifest itself is written tmp → fsync → atomic rename, and the
//! generation only becomes visible when `CURRENT` flips.

use super::crash::CrashInjector;
use super::crc::crc32;
use super::term_codec::encode_term;
#[cfg(test)]
use super::term_codec::{decode_term, Cursor};
use crate::interner::TermChunkParts;
use super::{sync_dir, PersistError};
use crate::layer::Layer;
use crate::segment::Segment;
use crate::store::Store;
use rdfa_model::Term;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const HEADER: &str = "RDFAMAN1";
const CHUNK_MAGIC: &[u8; 8] = b"RDFATRM1";

/// One immutable term-chunk file: terms `from .. from + count` in id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChunkRef {
    pub(crate) name: String,
    pub(crate) from: usize,
    pub(crate) count: usize,
}

/// Parsed contents of a `segments.<g>.txt` manifest.
#[derive(Debug, Clone, Default)]
pub(crate) struct Manifest {
    /// Total interned terms; the chunks must cover exactly `0..term_count`.
    pub(crate) term_count: usize,
    pub(crate) chunks: Vec<ChunkRef>,
    /// Explicit-layer segment files, bottom of the stack first.
    pub(crate) segs: Vec<String>,
    /// Persisted RDFS closure segment; absent when the store was dirty.
    pub(crate) inf: Option<String>,
}

pub(crate) fn manifest_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("segments.{generation}.txt"))
}

impl Manifest {
    fn render(&self) -> String {
        let mut text = format!("{HEADER}\nterms {}\n", self.term_count);
        for c in &self.chunks {
            text.push_str(&format!("chunk {} {} {}\n", c.name, c.from, c.count));
        }
        for s in &self.segs {
            text.push_str(&format!("seg {s}\n"));
        }
        if let Some(inf) = &self.inf {
            text.push_str(&format!("inf {inf}\n"));
        }
        let crc = crc32(text.as_bytes());
        text.push_str(&format!("crc {crc:08x}\n"));
        text
    }

    /// Every file this manifest references, relative to the store dir.
    pub(crate) fn files(&self) -> impl Iterator<Item = &str> {
        self.chunks
            .iter()
            .map(|c| c.name.as_str())
            .chain(self.segs.iter().map(|s| s.as_str()))
            .chain(self.inf.as_deref())
    }
}

/// Write the manifest for `generation` via tmp + fsync + atomic rename.
pub(crate) fn write_manifest(
    dir: &Path,
    generation: u64,
    m: &Manifest,
    crash: &CrashInjector,
) -> Result<(), PersistError> {
    let io = |e: std::io::Error| PersistError::Io { context: "manifest write", source: e };
    let final_path = manifest_path(dir, generation);
    let tmp = dir.join(format!("segments.{generation}.tmp"));
    {
        let mut file = File::create(&tmp).map_err(io)?;
        file.write_all(m.render().as_bytes()).map_err(io)?;
        file.sync_all().map_err(io)?;
    }
    crash.check("manifest.written")?;
    fs::rename(&tmp, &final_path).map_err(io)?;
    sync_dir(dir)?;
    crash.check("manifest.rename")?;
    Ok(())
}

fn corrupt(detail: String) -> PersistError {
    PersistError::Corrupt { what: "segment manifest", detail }
}

/// Read and CRC-verify a manifest file.
pub(crate) fn read_manifest(path: &Path) -> Result<Manifest, PersistError> {
    let text = fs::read_to_string(path)
        .map_err(|e| PersistError::Io { context: "manifest read", source: e })?;
    let (body, crc_line) = text
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .ok_or_else(|| corrupt("missing crc line".to_owned()))?;
    let body = format!("{body}\n");
    let expected = crc_line
        .strip_prefix("crc ")
        .and_then(|h| u32::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| corrupt(format!("bad crc line: {crc_line:?}")))?;
    let found = crc32(body.as_bytes());
    if found != expected {
        return Err(PersistError::Checksum { what: "segment manifest", expected, found });
    }
    let mut lines = body.lines();
    if lines.next() != Some(HEADER) {
        return Err(PersistError::BadMagic {
            what: "segment manifest",
            found: text.bytes().take(8).collect(),
        });
    }
    let mut m = Manifest::default();
    let mut saw_terms = false;
    for line in lines {
        let (kind, rest) = line
            .split_once(' ')
            .ok_or_else(|| corrupt(format!("bad line: {line:?}")))?;
        match kind {
            "terms" => {
                m.term_count =
                    rest.parse().map_err(|_| corrupt(format!("bad term count: {rest:?}")))?;
                saw_terms = true;
            }
            "chunk" => {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap_or_default().to_owned();
                let from = parts.next().and_then(|v| v.parse().ok());
                let count = parts.next().and_then(|v| v.parse().ok());
                match (from, count) {
                    (Some(from), Some(count)) if !name.is_empty() => {
                        m.chunks.push(ChunkRef { name, from, count });
                    }
                    _ => return Err(corrupt(format!("bad chunk line: {line:?}"))),
                }
            }
            "seg" => m.segs.push(rest.to_owned()),
            "inf" => m.inf = Some(rest.to_owned()),
            _ => return Err(corrupt(format!("unknown line kind: {kind:?}"))),
        }
    }
    if !saw_terms {
        return Err(corrupt("missing terms line".to_owned()));
    }
    Ok(m)
}

/// Read the previous generation's manifest if one exists (for chunk and
/// segment reuse); `None` before the first checkpoint.
pub(crate) fn read_previous(dir: &Path, generation: u64) -> Option<Manifest> {
    let path = manifest_path(dir, generation);
    path.exists().then(|| read_manifest(&path).ok()).flatten()
}

const CHUNK_HEADER_LEN: usize = 8 + 8; // magic + from + count

/// Write one immutable term chunk holding `terms` (ids `from..from+count`),
/// via tmp + fsync + atomic rename. Returns the final file name.
///
/// Layout:
///
/// ```text
/// [magic 8][from u32][count u32]
/// [end offset u32 × count]     term k's encoding ends here (payload-rel.)
/// [content hash u64 × count]   interner hash64 of term k
/// [payload]                    count terms, encode_term wire format
/// [payload crc u32][meta crc u32]
/// ```
///
/// Offsets and hashes ride in the file so that opening a chunk needs to
/// decode *nothing*: the id map is rebuilt from the persisted hashes and
/// each term's bytes are found by offset when (if ever) it is first used.
pub(crate) fn write_term_chunk<'a>(
    dir: &Path,
    from: usize,
    count: usize,
    terms: impl Iterator<Item = &'a Term>,
) -> Result<String, PersistError> {
    let io = |e: std::io::Error| PersistError::Io { context: "term chunk write", source: e };
    let name = format!("terms.{from}-{}.tbl", from + count);
    let tmp = dir.join(format!("{name}.tmp"));
    let mut payload = Vec::new();
    let mut offsets: Vec<u32> = Vec::with_capacity(count);
    let mut hashes: Vec<u64> = Vec::with_capacity(count);
    for term in terms {
        encode_term(&mut payload, term);
        offsets.push(payload.len() as u32);
        hashes.push(crate::interner::hash64(&crate::interner::term_ref_of(term)));
    }
    debug_assert_eq!(offsets.len(), count, "term chunk iterator length mismatch");
    let mut meta = Vec::with_capacity(CHUNK_HEADER_LEN + count * 12);
    meta.extend_from_slice(CHUNK_MAGIC);
    meta.extend_from_slice(&(from as u32).to_le_bytes());
    meta.extend_from_slice(&(count as u32).to_le_bytes());
    for off in &offsets {
        meta.extend_from_slice(&off.to_le_bytes());
    }
    for h in &hashes {
        meta.extend_from_slice(&h.to_le_bytes());
    }
    let payload_crc = crc32(&payload);
    let meta_crc = crc32(&meta);
    {
        let mut file = File::create(&tmp).map_err(io)?;
        file.write_all(&meta).map_err(io)?;
        file.write_all(&payload).map_err(io)?;
        file.write_all(&payload_crc.to_le_bytes()).map_err(io)?;
        file.write_all(&meta_crc.to_le_bytes()).map_err(io)?;
        file.sync_all().map_err(io)?;
    }
    fs::rename(&tmp, dir.join(&name)).map_err(io)?;
    Ok(name)
}

fn chunk_corrupt(detail: String) -> PersistError {
    PersistError::Corrupt { what: "term chunk", detail }
}

/// Open and verify one term chunk *without decoding any term*:
/// `(from, end offsets, content hashes, payload)`. Both CRCs are checked
/// here, so later on-demand decodes operate on verified bytes.
pub(crate) fn open_term_chunk(path: &Path) -> Result<TermChunkParts, PersistError> {
    let bytes = fs::read(path)
        .map_err(|e| PersistError::Io { context: "term chunk read", source: e })?;
    if bytes.len() < CHUNK_HEADER_LEN + 8 {
        return Err(chunk_corrupt(format!("file too small ({} bytes)", bytes.len())));
    }
    if &bytes[..8] != CHUNK_MAGIC {
        return Err(PersistError::BadMagic { what: "term chunk", found: bytes[..8].to_vec() });
    }
    let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
    let from = u32_at(8) as usize;
    let count = u32_at(12) as usize;
    let meta_len = CHUNK_HEADER_LEN
        .checked_add(count.checked_mul(12).ok_or_else(|| chunk_corrupt("count overflow".into()))?)
        .filter(|&m| m + 8 <= bytes.len())
        .ok_or_else(|| chunk_corrupt(format!("truncated: {} bytes for {count} terms", bytes.len())))?;
    let expected_meta = u32_at(bytes.len() - 4);
    let found_meta = crc32(&bytes[..meta_len]);
    if found_meta != expected_meta {
        return Err(PersistError::Checksum {
            what: "term chunk",
            expected: expected_meta,
            found: found_meta,
        });
    }
    let payload = &bytes[meta_len..bytes.len() - 8];
    let expected_payload = u32_at(bytes.len() - 8);
    let found_payload = crc32(payload);
    if found_payload != expected_payload {
        return Err(PersistError::Checksum {
            what: "term chunk",
            expected: expected_payload,
            found: found_payload,
        });
    }
    let offsets: Vec<u32> =
        (0..count).map(|k| u32_at(CHUNK_HEADER_LEN + k * 4)).collect();
    let hash_base = CHUNK_HEADER_LEN + count * 4;
    let hashes: Vec<u64> = (0..count)
        .map(|k| {
            u64::from_le_bytes(bytes[hash_base + k * 8..hash_base + k * 8 + 8].try_into().unwrap())
        })
        .collect();
    // offsets must be monotone and cover the payload exactly, so on-demand
    // decodes can slice without further checks
    let mut prev = 0u32;
    for (k, &off) in offsets.iter().enumerate() {
        if off < prev || off as usize > payload.len() {
            return Err(chunk_corrupt(format!("term {} offset out of bounds", from + k)));
        }
        prev = off;
    }
    if offsets.last().map(|&o| o as usize).unwrap_or(0) != payload.len() {
        return Err(chunk_corrupt("offsets do not cover the payload".to_owned()));
    }
    Ok((from, offsets, hashes, payload.to_vec()))
}

/// Read and eagerly decode one term chunk: `(from, terms)`. The write path
/// is verified against this in tests; the restart path uses
/// [`open_term_chunk`] and decodes lazily.
#[cfg(test)]
pub(crate) fn read_term_chunk(path: &Path) -> Result<(usize, Vec<Term>), PersistError> {
    let (from, offsets, _hashes, payload) = open_term_chunk(path)?;
    let mut cur = Cursor { buf: &payload, pos: 0, what: "term chunk" };
    let mut terms = Vec::with_capacity(offsets.len());
    for (i, &end) in offsets.iter().enumerate() {
        terms.push(decode_term(&mut cur, from + i)?);
        if cur.pos != end as usize {
            return Err(chunk_corrupt(format!("term {} does not end at its offset", from + i)));
        }
    }
    Ok((from, terms))
}

/// Rebuild a [`Store`] from a manifest: load the term chunks into a frozen
/// interner, mmap every segment, and assemble the layers. This is the
/// near-instant restart path — no triple is decoded here; segment blocks
/// fault in and decode on first access.
pub(crate) fn open_store(dir: &Path, generation: u64) -> Result<Store, PersistError> {
    let m = read_manifest(&manifest_path(dir, generation))?;
    let mut parts = Vec::with_capacity(m.chunks.len());
    let mut covered = 0usize;
    for c in &m.chunks {
        let (from, offsets, hashes, payload) = open_term_chunk(&dir.join(&c.name))?;
        if from != covered || offsets.len() != c.count {
            return Err(corrupt(format!(
                "chunk {} covers {from}..{} but {covered} terms were loaded so far",
                c.name,
                from + offsets.len(),
            )));
        }
        covered = from + offsets.len();
        parts.push((from, offsets, hashes, payload));
    }
    if covered != m.term_count {
        return Err(corrupt(format!(
            "chunks cover {covered} terms, manifest says {}",
            m.term_count
        )));
    }
    let interner = crate::interner::Interner::from_chunks(parts);
    if m.segs.len() > crate::layer::MAX_SEGS {
        return Err(corrupt(format!(
            "{} segments listed, a layer stacks at most {}",
            m.segs.len(),
            crate::layer::MAX_SEGS
        )));
    }
    let mut segs = Vec::with_capacity(m.segs.len());
    for name in &m.segs {
        segs.push(Arc::new(Segment::open(&dir.join(name))?));
    }
    let explicit = Layer::from_segments(segs);
    let inferred = match &m.inf {
        Some(name) => Some(Layer::from_segments(vec![Arc::new(Segment::open(
            &dir.join(name),
        )?)])),
        None => None,
    };
    Ok(Store::from_layer_parts(interner, explicit, inferred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rdfa-manifest-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_roundtrips() {
        let dir = tmpdir("roundtrip");
        let m = Manifest {
            term_count: 42,
            chunks: vec![
                ChunkRef { name: "terms.0-40.tbl".into(), from: 0, count: 40 },
                ChunkRef { name: "terms.40-42.tbl".into(), from: 40, count: 2 },
            ],
            segs: vec!["seg.1.0.seg".into(), "seg.2.1.seg".into()],
            inf: Some("inf.2.seg".into()),
        };
        write_manifest(&dir, 2, &m, &CrashInjector::off()).unwrap();
        let back = read_manifest(&manifest_path(&dir, 2)).unwrap();
        assert_eq!(back.term_count, 42);
        assert_eq!(back.chunks, m.chunks);
        assert_eq!(back.segs, m.segs);
        assert_eq!(back.inf, m.inf);
        assert_eq!(back.files().count(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let m = Manifest {
            term_count: 7,
            chunks: vec![ChunkRef { name: "terms.0-7.tbl".into(), from: 0, count: 7 }],
            segs: vec!["seg.1.0.seg".into()],
            inf: None,
        };
        write_manifest(&dir, 1, &m, &CrashInjector::off()).unwrap();
        let path = manifest_path(&dir, 1);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("terms 7", "terms 8")).unwrap();
        assert!(matches!(
            read_manifest(&path),
            Err(PersistError::Checksum { .. })
        ));
        // a correctly sealed file with a foreign header is refused by name
        let body = text.rsplit_once("crc ").unwrap().0.replace(HEADER, "RDFAMAN9");
        fs::write(&path, format!("{body}crc {:08x}\n", crc32(body.as_bytes()))).unwrap();
        let err = read_manifest(&path).unwrap_err().to_string();
        assert!(err.starts_with("not a segment manifest file"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn term_chunk_roundtrips_and_detects_corruption() {
        let dir = tmpdir("chunk");
        let terms = vec![
            Term::iri("http://e/a"),
            Term::blank("b0"),
            Term::string("hello"),
            Term::integer(42),
        ];
        let name = write_term_chunk(&dir, 3, terms.len(), terms.iter()).unwrap();
        assert_eq!(name, "terms.3-7.tbl");
        let (from, back) = read_term_chunk(&dir.join(&name)).unwrap();
        assert_eq!(from, 3);
        assert_eq!(back, terms);
        // flip a payload byte
        let path = dir.join(&name);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_term_chunk(&path),
            Err(PersistError::Checksum { .. }) | Err(PersistError::Corrupt { .. })
        ));
        bytes[0] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = read_term_chunk(&path).unwrap_err().to_string();
        assert!(err.starts_with("not a term chunk file"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
