//! RDF terms: IRIs, blank nodes, and literals.
//!
//! A term is any element that may appear in a triple. Following the RDF 1.1
//! abstract syntax, subjects are IRIs or blank nodes, predicates are IRIs,
//! and objects may be any term (§2.1 of the paper).

use crate::vocab::xsd;
use std::borrow::Cow;
use std::fmt;

/// A literal: a lexical form plus a datatype IRI and an optional language tag.
///
/// Plain literals are represented with datatype `xsd:string`; language-tagged
/// literals with datatype `rdf:langString` and `lang = Some(..)`, mirroring
/// RDF 1.1 semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The lexical form exactly as written, e.g. `"42"` or `"2021-06-10"`.
    pub lexical: String,
    /// Datatype IRI, e.g. `xsd:integer`.
    pub datatype: String,
    /// BCP-47 language tag for `rdf:langString` literals.
    pub lang: Option<String>,
}

impl Literal {
    /// A plain `xsd:string` literal.
    pub fn string(s: impl Into<String>) -> Self {
        Literal { lexical: s.into(), datatype: xsd::STRING.to_owned(), lang: None }
    }

    /// A typed literal with the given datatype IRI.
    pub fn typed(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Literal { lexical: lexical.into(), datatype: datatype.into(), lang: None }
    }

    /// A language-tagged string literal.
    pub fn lang_string(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: crate::vocab::rdf::LANG_STRING.to_owned(),
            lang: Some(lang.into()),
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(v: i64) -> Self {
        Literal::typed(v.to_string(), xsd::INTEGER)
    }

    /// An `xsd:decimal` literal.
    pub fn decimal(v: f64) -> Self {
        Literal::typed(format_decimal(v), xsd::DECIMAL)
    }

    /// An `xsd:double` literal.
    pub fn double(v: f64) -> Self {
        Literal::typed(format!("{v:?}"), xsd::DOUBLE)
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(v: bool) -> Self {
        Literal::typed(v.to_string(), xsd::BOOLEAN)
    }

    /// An `xsd:date` literal from year/month/day.
    pub fn date(y: i32, m: u8, d: u8) -> Self {
        Literal::typed(format!("{y:04}-{m:02}-{d:02}"), xsd::DATE)
    }

    /// True when the datatype is one of the XSD numeric types.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self.datatype.as_str(),
            xsd::INTEGER | xsd::DECIMAL | xsd::DOUBLE | xsd::FLOAT | xsd::INT | xsd::LONG
        )
    }
}

/// Format an `f64` as an `xsd:decimal` lexical form (no exponent).
fn format_decimal(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        format!("{v}")
    }
}

/// An RDF term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored in full (no namespace compression here).
    Iri(String),
    /// A blank node with its local label (without the `_:` prefix).
    Blank(String),
    /// A literal value.
    Literal(Literal),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(s.into())
    }

    /// Construct a blank node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::Blank(label.into())
    }

    /// Construct a plain string literal term.
    pub fn string(s: impl Into<String>) -> Self {
        Term::Literal(Literal::string(s))
    }

    /// Construct an `xsd:integer` literal term.
    pub fn integer(v: i64) -> Self {
        Term::Literal(Literal::integer(v))
    }

    /// Construct an `xsd:decimal` literal term.
    pub fn decimal(v: f64) -> Self {
        Term::Literal(Literal::decimal(v))
    }

    /// Construct an `xsd:boolean` literal term.
    pub fn boolean(v: bool) -> Self {
        Term::Literal(Literal::boolean(v))
    }

    /// Construct an `xsd:date` literal term.
    pub fn date(y: i32, m: u8, d: u8) -> Self {
        Term::Literal(Literal::date(y, m, d))
    }

    /// True for [`Term::Iri`].
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True for [`Term::Literal`].
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True for [`Term::Blank`].
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// The IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal if this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// A short human-readable rendering: local name for IRIs, lexical form
    /// for literals. Used by facet and answer-frame displays.
    pub fn display_name(&self) -> String {
        self.display_str().into_owned()
    }

    /// [`Term::display_name`] borrowed from the term where it can be: an
    /// IRI's local name and a literal's lexical form are slices of the
    /// term, only a blank node's `_:` label is built.
    pub fn display_str(&self) -> Cow<'_, str> {
        match self {
            Term::Iri(s) => Cow::Borrowed(local_name(s)),
            Term::Blank(b) => Cow::Owned(format!("_:{b}")),
            Term::Literal(l) => Cow::Borrowed(&l.lexical),
        }
    }
}

/// The local part of an IRI: everything after the last `#`, `/`, or `:`
/// (the latter for `urn:`-style IRIs).
pub fn local_name(iri: &str) -> &str {
    let cut = iri.rfind(['#', '/', ':']).map(|i| i + 1).unwrap_or(0);
    &iri[cut..]
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Blank(b) => write!(f, "_:{b}"),
            Term::Literal(l) => write!(f, "{l}"),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        if let Some(lang) = &self.lang {
            write!(f, "@{lang}")
        } else if self.datatype != xsd::STRING {
            write!(f, "^^<{}>", self.datatype)
        } else {
            Ok(())
        }
    }
}

/// Escape a literal's lexical form for N-Triples/Turtle output. Control
/// characters outside the named escapes are written as `\uXXXX` so every
/// lexical form round-trips through the line-based N-Triples grammar.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\u{7f}' => {
                out.push_str(&format!("\\u{:04X}", c as u32))
            }
            _ => out.push(c),
        }
    }
    out
}

/// An invalid escape sequence inside a literal, with the byte offset and the
/// offending lexeme fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeError {
    /// Byte offset of the backslash that starts the bad sequence.
    pub pos: usize,
    /// The offending fragment, e.g. `\uD800` or `\uZZ`.
    pub lexeme: String,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for EscapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in escape {:?} at offset {}", self.reason, self.lexeme, self.pos)
    }
}

impl std::error::Error for EscapeError {}

/// Unescape a literal lexical form read from N-Triples/Turtle input.
/// Lenient: malformed sequences are passed through verbatim. Use
/// [`unescape_literal_checked`] where malformed input must be rejected.
pub fn unescape_literal(s: &str) -> String {
    match unescape_inner(s, false) {
        Ok(out) => out,
        Err(_) => unreachable!("lenient unescape never fails"),
    }
}

/// Strict unescaping: rejects unknown escapes, truncated `\u`/`\U`
/// sequences, lone surrogates, and out-of-range code points.
pub fn unescape_literal_checked(s: &str) -> Result<String, EscapeError> {
    unescape_inner(s, true)
}

/// Zero-copy variant of [`unescape_literal`]: borrows the input when it
/// contains no backslash (the common case in bulk ingest) and allocates
/// only when unescaping actually rewrites bytes.
pub fn unescape_literal_cow(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains('\\') {
        std::borrow::Cow::Owned(unescape_literal(s))
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

/// Zero-copy variant of [`unescape_literal_checked`]; same borrowing rule
/// as [`unescape_literal_cow`].
pub fn unescape_literal_checked_cow(s: &str) -> Result<std::borrow::Cow<'_, str>, EscapeError> {
    if s.contains('\\') {
        unescape_inner(s, true).map(std::borrow::Cow::Owned)
    } else {
        Ok(std::borrow::Cow::Borrowed(s))
    }
}

fn unescape_inner(s: &str, strict: bool) -> Result<String, EscapeError> {
    let mut out = String::with_capacity(s.len());
    let mut iter = s.char_indices().peekable();
    while let Some((pos, c)) = iter.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let err = |lexeme: &str, reason: &'static str| EscapeError {
            pos,
            lexeme: lexeme.to_owned(),
            reason,
        };
        match iter.next() {
            Some((_, 'n')) => out.push('\n'),
            Some((_, 'r')) => out.push('\r'),
            Some((_, 't')) => out.push('\t'),
            Some((_, 'b')) => out.push('\u{8}'),
            Some((_, 'f')) => out.push('\u{c}'),
            Some((_, '"')) => out.push('"'),
            Some((_, '\'')) => out.push('\''),
            Some((_, '\\')) => out.push('\\'),
            Some((_, u @ ('u' | 'U'))) => {
                let want = if u == 'u' { 4 } else { 8 };
                let mut hex = String::with_capacity(want);
                while hex.len() < want {
                    match iter.peek() {
                        Some(&(_, h)) if h.is_ascii_hexdigit() => {
                            hex.push(h);
                            iter.next();
                        }
                        _ => break,
                    }
                }
                let code = if hex.len() == want {
                    u32::from_str_radix(&hex, 16).ok()
                } else {
                    None
                };
                match code {
                    Some(cp) if (0xD800..=0xDFFF).contains(&cp) => {
                        if strict {
                            return Err(err(
                                &format!("\\{u}{hex}"),
                                "lone surrogate code point",
                            ));
                        }
                        out.push('\u{fffd}');
                    }
                    Some(cp) => match char::from_u32(cp) {
                        Some(ch) => out.push(ch),
                        None => {
                            if strict {
                                return Err(err(
                                    &format!("\\{u}{hex}"),
                                    "code point out of range",
                                ));
                            }
                            out.push('\u{fffd}');
                        }
                    },
                    None => {
                        if strict {
                            return Err(err(
                                &format!("\\{u}{hex}"),
                                "truncated unicode escape",
                            ));
                        }
                        out.push('\\');
                        out.push(u);
                        out.push_str(&hex);
                    }
                }
            }
            Some((_, other)) => {
                if strict {
                    return Err(err(&format!("\\{other}"), "unknown escape"));
                }
                out.push('\\');
                out.push(other);
            }
            None => {
                if strict {
                    return Err(err("\\", "trailing backslash"));
                }
                out.push('\\');
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_constructors_set_datatypes() {
        assert_eq!(Literal::integer(42).datatype, xsd::INTEGER);
        assert_eq!(Literal::boolean(true).lexical, "true");
        assert_eq!(Literal::date(2021, 6, 10).lexical, "2021-06-10");
        assert_eq!(Literal::string("hi").datatype, xsd::STRING);
        let l = Literal::lang_string("bonjour", "fr");
        assert_eq!(l.lang.as_deref(), Some("fr"));
    }

    #[test]
    fn display_renders_nt_syntax() {
        assert_eq!(Term::iri("http://a/b").to_string(), "<http://a/b>");
        assert_eq!(Term::blank("x").to_string(), "_:x");
        assert_eq!(Term::string("hi").to_string(), "\"hi\"");
        assert_eq!(
            Term::integer(5).to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(
            Term::Literal(Literal::lang_string("hi", "en")).to_string(),
            "\"hi\"@en"
        );
    }

    #[test]
    fn local_name_cuts_hash_and_slash() {
        assert_eq!(local_name("http://ex.org/ns#Laptop"), "Laptop");
        assert_eq!(local_name("http://ex.org/ns/Laptop"), "Laptop");
        assert_eq!(local_name("Laptop"), "Laptop");
    }

    #[test]
    fn escape_roundtrip() {
        let s = "line1\nline2\t\"quoted\" back\\slash";
        assert_eq!(unescape_literal(&escape_literal(s)), s);
    }

    #[test]
    fn escape_roundtrip_control_and_unicode() {
        let s = "nul\u{0}bell\u{7}del\u{7f}λ中🦀";
        let escaped = escape_literal(s);
        assert!(escaped.contains("\\u0000"), "{escaped}");
        assert_eq!(unescape_literal(&escaped), s);
        assert_eq!(unescape_literal_checked(&escaped).unwrap(), s);
    }

    #[test]
    fn checked_unescape_rejects_lone_surrogates() {
        let err = unescape_literal_checked("a\\uD800b").unwrap_err();
        assert_eq!(err.reason, "lone surrogate code point");
        assert_eq!(err.lexeme, "\\uD800");
        assert_eq!(err.pos, 1);
        assert!(unescape_literal_checked("\\UDFFFFFFF").is_err());
        // lenient mode substitutes the replacement character instead
        assert_eq!(unescape_literal("a\\uD800b"), "a\u{fffd}b");
    }

    #[test]
    fn checked_unescape_rejects_malformed_sequences() {
        assert_eq!(unescape_literal_checked("\\uZZ").unwrap_err().reason, "truncated unicode escape");
        assert_eq!(unescape_literal_checked("\\u12").unwrap_err().reason, "truncated unicode escape");
        assert_eq!(unescape_literal_checked("\\q").unwrap_err().reason, "unknown escape");
        assert_eq!(unescape_literal_checked("tail\\").unwrap_err().reason, "trailing backslash");
        assert_eq!(unescape_literal_checked("\\u0041\\U0001F980").unwrap(), "A🦀");
    }

    #[test]
    fn cow_unescape_borrows_when_clean() {
        use std::borrow::Cow;
        assert!(matches!(unescape_literal_cow("plain text"), Cow::Borrowed(_)));
        assert!(matches!(unescape_literal_cow("a\\nb"), Cow::Owned(_)));
        assert_eq!(unescape_literal_cow("a\\nb"), unescape_literal("a\\nb"));
        assert!(matches!(unescape_literal_checked_cow("plain").unwrap(), Cow::Borrowed(_)));
        assert_eq!(unescape_literal_checked_cow("a\\tb").unwrap(), "a\tb");
        assert!(unescape_literal_checked_cow("\\uD800").is_err());
    }

    #[test]
    fn display_name_prefers_short_forms() {
        assert_eq!(Term::iri("http://ex.org#DELL").display_name(), "DELL");
        assert_eq!(Term::integer(2).display_name(), "2");
        assert_eq!(Term::blank("b0").display_name(), "_:b0");
    }

    #[test]
    fn display_str_borrows_all_but_blank_labels() {
        for t in [Term::iri("http://ex.org/a#DELL"), Term::string("x y"), Term::blank("b0")] {
            let shown = t.display_str();
            assert_eq!(shown, t.display_name());
            assert_eq!(matches!(shown, Cow::Borrowed(_)), !t.is_blank(), "{t}");
        }
    }

    #[test]
    fn decimal_formatting_keeps_point() {
        assert_eq!(Literal::decimal(900.0).lexical, "900.0");
        assert_eq!(Literal::decimal(900.5).lexical, "900.5");
    }
}
