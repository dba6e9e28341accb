//! The append-only write-ahead log.
//!
//! Each record is `len u32 | crc32 u32 | payload`, little-endian, where the
//! CRC covers the payload. Payloads are an op tag followed by N-Triples
//! text — a *logical* log, so replay is independent of interner ids:
//!
//! | tag | op | data |
//! |---|---|---|
//! | 1 | insert | one N-Triples line (read only: written by older releases) |
//! | 2 | remove | one N-Triples line (read only: written by older releases) |
//! | 3 | load   | an N-Triples document |
//! | 4 | batch  | `u32` count, then per item `u8` insert/remove tag + `u32` len + line |
//!
//! A transaction's explicit changes are one batch record, so either the
//! whole update survives a crash or none of it does; a load is one record
//! per parsed block. On open the log is replayed into
//! the store and **truncated at the first torn or corrupt record** — a
//! half-written tail is the expected aftermath of a crash, not an error.

use super::crash::CrashInjector;
use super::crc::crc32;
use super::{FsyncPolicy, Mutation, PersistError};
use crate::store::Store;
use rdfa_model::ntriples;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_LOAD: u8 = 3;
const OP_BATCH: u8 = 4;

/// Records larger than this are treated as corruption during replay (a
/// torn length field can otherwise claim gigabytes).
const MAX_RECORD: u32 = 1 << 30;

/// Where and why replay stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTruncation {
    /// Byte offset the log was truncated back to.
    pub offset: u64,
    /// Human-readable reason (torn header, checksum mismatch, …).
    pub reason: String,
}

pub(crate) struct Wal {
    file: File,
    fsync: FsyncPolicy,
    crash: Arc<CrashInjector>,
    unsynced: u32,
    dead: bool,
    /// Bytes in this log file.
    len: u64,
    /// Records in this log file: replayed at open + appended since.
    pub(crate) records: u64,
}

/// A position in the log a transaction can roll its appends back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalMark {
    len: u64,
    records: u64,
}

impl Wal {
    /// Open (creating if needed) a log for appending. `existing` is the
    /// number of records already in the file, as counted by replay.
    pub(crate) fn open_append(
        path: &Path,
        fsync: FsyncPolicy,
        crash: Arc<CrashInjector>,
        existing: u64,
    ) -> Result<Wal, PersistError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| PersistError::Io { context: "wal open", source: e })?;
        let len = file
            .metadata()
            .map_err(|e| PersistError::Io { context: "wal open", source: e })?
            .len();
        Ok(Wal {
            file,
            fsync,
            crash,
            unsynced: 0,
            dead: false,
            len,
            records: existing,
        })
    }

    /// The current end of the log.
    pub(crate) fn mark(&self) -> WalMark {
        WalMark { len: self.len, records: self.records }
    }

    /// Cut the log back to `mark`, undoing the appends of a transaction
    /// that will not publish. A failure poisons the log.
    pub(crate) fn rollback(&mut self, mark: WalMark) -> Result<(), PersistError> {
        if self.dead {
            return Err(PersistError::Dead);
        }
        let cut = self
            .file
            .set_len(mark.len)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| PersistError::Io { context: "wal rollback", source: e });
        match cut {
            Ok(()) => {
                self.len = mark.len;
                self.records = mark.records;
                Ok(())
            }
            Err(e) => {
                self.dead = true;
                Err(e)
            }
        }
    }

    pub(crate) fn append_load(&mut self, ntriples_doc: &str) -> Result<(), PersistError> {
        let mut payload = Vec::with_capacity(1 + ntriples_doc.len());
        payload.push(OP_LOAD);
        payload.extend_from_slice(ntriples_doc.as_bytes());
        self.append(&payload)
    }

    pub(crate) fn append_batch(&mut self, mutations: &[Mutation]) -> Result<(), PersistError> {
        let mut payload = vec![OP_BATCH];
        payload.extend_from_slice(&(mutations.len() as u32).to_le_bytes());
        for m in mutations {
            let (tag, t) = match m {
                Mutation::Insert(t) => (OP_INSERT, t),
                Mutation::Remove(t) => (OP_REMOVE, t),
            };
            let line = t.to_string();
            payload.push(tag);
            payload.extend_from_slice(&(line.len() as u32).to_le_bytes());
            payload.extend_from_slice(line.as_bytes());
        }
        self.append(&payload)
    }

    /// Append one record, tearing at the armed crash point if any. After an
    /// injected crash (or a real I/O error) the log is poisoned: every
    /// subsequent call fails with [`PersistError::Dead`], exactly as if the
    /// process had died.
    fn append(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        if self.dead {
            return Err(PersistError::Dead);
        }
        let result = self.append_inner(payload);
        if result.is_err() {
            self.dead = true;
        }
        result
    }

    fn append_inner(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        let io = |e: std::io::Error| PersistError::Io { context: "wal append", source: e };
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        self.file.write_all(&header).map_err(io)?;
        self.crash.check("wal.append.header")?;
        let half = payload.len() / 2;
        self.file.write_all(&payload[..half]).map_err(io)?;
        self.crash.check("wal.append.torn-body")?;
        self.file.write_all(&payload[half..]).map_err(io)?;
        self.crash.check("wal.append.body")?;
        match self.fsync {
            FsyncPolicy::Always => self.file.sync_data().map_err(io)?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.file.sync_data().map_err(io)?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        self.crash.check("wal.append.synced")?;
        self.len += (header.len() + payload.len()) as u64;
        self.records += 1;
        Ok(())
    }

    /// Flush OS buffers (used before checkpointing and on drop).
    pub(crate) fn sync(&mut self) -> Result<(), PersistError> {
        if self.dead {
            return Err(PersistError::Dead);
        }
        self.file
            .sync_data()
            .map_err(|e| PersistError::Io { context: "wal sync", source: e })
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if !self.dead && !matches!(self.fsync, FsyncPolicy::Never) {
            let _ = self.file.sync_data();
        }
    }
}

/// Replay a log into `store` (no per-record inference; the caller
/// rematerializes once). Returns the number of records applied and, when a
/// torn/corrupt tail was found, the truncation performed. The file on disk
/// is physically truncated back to the last good record so the next append
/// starts from a clean boundary.
pub(crate) fn replay(
    path: &Path,
    store: &mut Store,
) -> Result<(u64, Option<WalTruncation>), PersistError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, None)),
        Err(e) => return Err(PersistError::Io { context: "wal read", source: e }),
    };
    let mut pos = 0usize;
    let mut records = 0u64;
    let mut truncation = None;
    while pos < bytes.len() {
        let bad = |reason: String| WalTruncation { offset: pos as u64, reason };
        if pos + 8 > bytes.len() {
            truncation = Some(bad(format!("torn header: {} trailing bytes", bytes.len() - pos)));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let expected = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD {
            truncation = Some(bad(format!("implausible record length {len}")));
            break;
        }
        let body_start = pos + 8;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            truncation = Some(bad(format!(
                "torn record: header claims {len} bytes, {} available",
                bytes.len() - body_start
            )));
            break;
        }
        let payload = &bytes[body_start..body_end];
        let found = crc32(payload);
        if found != expected {
            truncation = Some(bad(format!(
                "checksum mismatch: expected {expected:08x}, found {found:08x}"
            )));
            break;
        }
        match apply_record(store, payload) {
            Ok(()) => {}
            Err(e) => {
                truncation = Some(bad(format!("undecodable record: {e}")));
                break;
            }
        }
        records += 1;
        pos = body_end;
    }
    if let Some(t) = &truncation {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| PersistError::Io { context: "wal truncate", source: e })?;
        file.set_len(t.offset)
            .map_err(|e| PersistError::Io { context: "wal truncate", source: e })?;
        file.sync_data()
            .map_err(|e| PersistError::Io { context: "wal truncate", source: e })?;
    }
    Ok((records, truncation))
}

fn apply_record(store: &mut Store, payload: &[u8]) -> Result<(), PersistError> {
    let (&op, data) = payload.split_first().ok_or(PersistError::Corrupt {
        what: "wal record",
        detail: "empty payload".to_owned(),
    })?;
    let as_text = |data: &[u8]| -> Result<String, PersistError> {
        String::from_utf8(data.to_vec()).map_err(|e| PersistError::Corrupt {
            what: "wal record",
            detail: format!("invalid UTF-8: {e}"),
        })
    };
    match op {
        OP_INSERT => apply_line(store, &as_text(data)?, true),
        OP_REMOVE => apply_line(store, &as_text(data)?, false),
        OP_LOAD => {
            // bulk replay: parses the payload whole and rebuilds indexes in one
            // sorted pass, with generation accounting identical to the
            // per-triple inserts it replaces; inference stays unmaterialized
            // until the end of recovery, as before
            store.bulk_replay_ntriples(&as_text(data)?).map_err(PersistError::Ntriples)?;
            Ok(())
        }
        OP_BATCH => {
            let mut pos = 0usize;
            let need = |pos: usize, n: usize| -> Result<(), PersistError> {
                if pos + n > data.len() {
                    return Err(PersistError::Corrupt {
                        what: "wal batch",
                        detail: "truncated batch body".to_owned(),
                    });
                }
                Ok(())
            };
            need(pos, 4)?;
            let count = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
            pos += 4;
            for _ in 0..count {
                need(pos, 5)?;
                let tag = data[pos];
                let len =
                    u32::from_le_bytes(data[pos + 1..pos + 5].try_into().unwrap()) as usize;
                pos += 5;
                need(pos, len)?;
                let line = as_text(&data[pos..pos + len])?;
                pos += len;
                apply_line(store, &line, tag == OP_INSERT)?;
            }
            Ok(())
        }
        other => Err(PersistError::Corrupt {
            what: "wal record",
            detail: format!("unknown op tag {other}"),
        }),
    }
}

fn apply_line(store: &mut Store, line: &str, insert: bool) -> Result<(), PersistError> {
    let graph = ntriples::parse(line).map_err(PersistError::Ntriples)?;
    for t in graph.iter() {
        if insert {
            store.insert(t);
        } else {
            store.remove(t);
        }
    }
    Ok(())
}
