//! The tagged wire format of one RDF term, shared by the segment
//! manifest's term chunks and the lazily decoding interner:
//!
//! ```text
//! tag u8            0 IRI, 1 blank node, 2 literal
//! IRI / blank       u32 length | UTF-8 bytes
//! literal           lexical | datatype (each u32 length | UTF-8 bytes),
//!                   then a flag u8: 0 no language, 1 followed by the
//!                   language tag (u32 length | UTF-8 bytes)
//! ```
//!
//! All integers are little-endian. [`Cursor`] reads the format back with
//! bounds checks, so truncated bytes are a typed [`PersistError::Corrupt`].

use super::PersistError;
use rdfa_model::{Literal, Term};

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Append one term's encoding to `buf`.
pub(crate) fn encode_term(buf: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            buf.push(0);
            put_str(buf, iri);
        }
        Term::Blank(label) => {
            buf.push(1);
            put_str(buf, label);
        }
        Term::Literal(l) => {
            buf.push(2);
            put_str(buf, &l.lexical);
            put_str(buf, &l.datatype);
            match &l.lang {
                Some(lang) => {
                    buf.push(1);
                    put_str(buf, lang);
                }
                None => buf.push(0),
            }
        }
    }
}

/// Decode one term written by [`encode_term`]. `i` labels the term in
/// corruption errors.
pub(crate) fn decode_term(cur: &mut Cursor<'_>, i: usize) -> Result<Term, PersistError> {
    Ok(match cur.u8()? {
        0 => Term::iri(cur.str()?),
        1 => Term::blank(cur.str()?),
        2 => {
            let lexical = cur.str()?.to_owned();
            let datatype = cur.str()?.to_owned();
            let lang = match cur.u8()? {
                0 => None,
                1 => Some(cur.str()?.to_owned()),
                other => {
                    return Err(PersistError::Corrupt {
                        what: cur.what,
                        detail: format!("bad lang flag {other} in term {i}"),
                    })
                }
            };
            Term::Literal(Literal { lexical, datatype, lang })
        }
        other => {
            return Err(PersistError::Corrupt {
                what: cur.what,
                detail: format!("bad term tag {other} in term {i}"),
            })
        }
    })
}

/// A bounds-checked little-endian cursor over an immutable byte buffer.
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
    pub(crate) what: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or(
            PersistError::Corrupt {
                what: self.what,
                detail: format!("truncated: wanted {n} bytes at offset {}", self.pos),
            },
        )?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, PersistError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| PersistError::Corrupt {
            what: self.what,
            detail: format!("invalid UTF-8 in string: {e}"),
        })
    }
}
