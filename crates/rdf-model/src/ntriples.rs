//! N-Triples line-based serialization: one triple per line, absolute IRIs.
//!
//! This is both the bulk export/import format of the benchmark harness and
//! the **durability format** of the persistence layer (`rdfa-store`'s WAL
//! records carry N-Triples payloads, and the snapshot fallback exporter
//! writes it), so parsing is strict: malformed escapes, lone surrogates and
//! truncated terms are rejected with a typed error carrying the line number
//! and the offending lexeme rather than silently repaired.

use crate::term::{unescape_literal_checked_cow, Literal, Term};
use crate::triple::{Graph, Triple};
use crate::vocab::{rdf, xsd};
use std::borrow::Cow;
use std::fmt;

/// What went wrong on an N-Triples line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NtriplesErrorKind {
    /// `<` without a closing `>`.
    UnterminatedIri,
    /// `"` without a closing unescaped `"`.
    UnterminatedLiteral,
    /// `^^<` without a closing `>`.
    UnterminatedDatatype,
    /// The line does not end with `.`.
    MissingDot,
    /// A term starts with a character no term can start with.
    UnparsableTerm,
    /// A literal contains a malformed or forbidden escape sequence
    /// (unknown escape, truncated `\u`, lone surrogate, …).
    BadEscape { reason: &'static str },
}

impl NtriplesErrorKind {
    fn message(&self) -> String {
        match self {
            NtriplesErrorKind::UnterminatedIri => "unterminated IRI".to_owned(),
            NtriplesErrorKind::UnterminatedLiteral => "unterminated literal".to_owned(),
            NtriplesErrorKind::UnterminatedDatatype => "unterminated datatype IRI".to_owned(),
            NtriplesErrorKind::MissingDot => "expected terminating '.'".to_owned(),
            NtriplesErrorKind::UnparsableTerm => "cannot parse term".to_owned(),
            NtriplesErrorKind::BadEscape { reason } => format!("bad escape: {reason}"),
        }
    }
}

/// A typed N-Triples parse error: the 1-based line number, the offending
/// lexeme (the unparsable fragment, truncated for display), and the kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtriplesError {
    /// 1-based line number within the parsed document.
    pub line: usize,
    /// The offending fragment of the line.
    pub lexeme: String,
    /// What went wrong.
    pub kind: NtriplesErrorKind,
}

impl fmt::Display for NtriplesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N-Triples line {}: {} at {:?}",
            self.line,
            self.kind.message(),
            self.lexeme
        )
    }
}

impl std::error::Error for NtriplesError {}

/// A line-local error from the zero-copy lexer, upgraded to
/// [`NtriplesError`] once the caller knows the document line number — a
/// streaming loader lexes block by block and adds the lines of the blocks
/// before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// The offending fragment, truncated for display.
    pub lexeme: String,
    /// What went wrong.
    pub kind: NtriplesErrorKind,
}

impl LexError {
    fn new(lexeme: &str, kind: NtriplesErrorKind) -> Self {
        // keep error lexemes bounded so a pathological line cannot balloon
        // error messages (and WAL recovery reports) without limit
        let mut short: String = lexeme.chars().take(64).collect();
        if short.len() < lexeme.len() {
            short.push('…');
        }
        LexError { lexeme: short, kind }
    }

    /// Attach the 1-based document line number.
    pub fn at_line(self, line: usize) -> NtriplesError {
        NtriplesError { line, lexeme: self.lexeme, kind: self.kind }
    }
}

/// A borrowed view of one term as lexed from an N-Triples line: IRIs and
/// blank-node labels are slices of the input, and literal lexical forms
/// borrow unless unescaping had to rewrite bytes. No `String` is allocated
/// per term until interning decides the term is new.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermRef<'a> {
    /// An IRI, without the surrounding `<` `>`.
    Iri(&'a str),
    /// A blank node label, without the `_:` prefix.
    Blank(&'a str),
    /// A literal; `datatype` defaults to `xsd:string` and is
    /// `rdf:langString` when `lang` is set, mirroring [`Literal`].
    Literal {
        lexical: Cow<'a, str>,
        datatype: &'a str,
        lang: Option<&'a str>,
    },
}

impl TermRef<'_> {
    /// Allocate an owned [`Term`] equal to this view.
    pub fn to_term(&self) -> Term {
        match self {
            TermRef::Iri(s) => Term::iri(*s),
            TermRef::Blank(s) => Term::blank(*s),
            TermRef::Literal { lexical, datatype, lang } => Term::Literal(Literal {
                lexical: lexical.clone().into_owned(),
                datatype: (*datatype).to_owned(),
                lang: lang.map(str::to_owned),
            }),
        }
    }
}

impl PartialEq<Term> for TermRef<'_> {
    fn eq(&self, other: &Term) -> bool {
        match (self, other) {
            (TermRef::Iri(a), Term::Iri(b)) => *a == b,
            (TermRef::Blank(a), Term::Blank(b)) => *a == b,
            (TermRef::Literal { lexical, datatype, lang }, Term::Literal(l)) => {
                *lexical == l.lexical && *datatype == l.datatype && *lang == l.lang.as_deref()
            }
            _ => false,
        }
    }
}

impl PartialEq<TermRef<'_>> for Term {
    fn eq(&self, other: &TermRef<'_>) -> bool {
        other == self
    }
}

/// Serialize a graph as N-Triples.
pub fn serialize(graph: &Graph) -> String {
    let mut out = String::new();
    for t in graph.iter() {
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

/// Parse an N-Triples document. A leading UTF-8 BOM is skipped; CRLF line
/// endings, blank lines and `#` comments are accepted. Malformed lines are
/// reported with their 1-based line number and offending lexeme.
pub fn parse(input: &str) -> Result<Graph, NtriplesError> {
    let input = strip_bom(input);
    let mut graph = Graph::new();
    for (i, line) in input.lines().enumerate() {
        match lex_line(line).map_err(|e| e.at_line(i + 1))? {
            Some([s, p, o]) => graph.push(Triple::new(s.to_term(), p.to_term(), o.to_term())),
            None => continue,
        }
    }
    Ok(graph)
}

/// Strip a leading UTF-8 byte-order mark.
pub fn strip_bom(input: &str) -> &str {
    input.strip_prefix('\u{feff}').unwrap_or(input)
}

/// Lex one N-Triples line with the zero-copy lexer. Returns `Ok(None)` for
/// blank lines and `#` comments, and borrowed `[subject, predicate,
/// object]` views otherwise. Surrounding whitespace is trimmed, so a stray
/// `\r` left on a CRLF line is tolerated.
pub fn lex_line(line: &str) -> Result<Option<[TermRef<'_>; 3]>, LexError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut rest = line;
    let subject = take_term_ref(&mut rest)?;
    let predicate = take_term_ref(&mut rest)?;
    let object = take_term_ref(&mut rest)?;
    let rest = rest.trim();
    if rest != "." {
        return Err(LexError::new(rest, NtriplesErrorKind::MissingDot));
    }
    Ok(Some([subject, predicate, object]))
}

/// One term in N-Triples syntax, making up the whole of `text` but for
/// surrounding whitespace.
pub fn parse_term(text: &str) -> Option<Term> {
    let mut rest = text;
    let term = take_term_ref(&mut rest).ok()?;
    rest.trim().is_empty().then(|| term.to_term())
}

fn take_term_ref<'a>(rest: &mut &'a str) -> Result<TermRef<'a>, LexError> {
    *rest = rest.trim_start();
    let s = *rest;
    if let Some(body) = s.strip_prefix('<') {
        let end = body
            .find('>')
            .ok_or_else(|| LexError::new(s, NtriplesErrorKind::UnterminatedIri))?;
        *rest = &body[end + 1..];
        Ok(TermRef::Iri(&body[..end]))
    } else if let Some(body) = s.strip_prefix("_:") {
        let end = body
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
            .unwrap_or(body.len());
        *rest = &body[end..];
        Ok(TermRef::Blank(&body[..end]))
    } else if let Some(body) = s.strip_prefix('"') {
        // closing-quote scan: in the common escape-free case the first quote
        // closes the literal and a pair of substring searches finds it;
        // literals containing backslashes fall back to the per-char scan
        let end = match (body.find('"'), body.find('\\')) {
            (Some(q), None) => Some(q),
            (Some(q), Some(b)) if q < b => Some(q),
            _ => {
                let mut escaped = false;
                let mut end = None;
                for (i, c) in body.char_indices() {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        end = Some(i);
                        break;
                    }
                }
                end
            }
        };
        let end = end.ok_or_else(|| LexError::new(s, NtriplesErrorKind::UnterminatedLiteral))?;
        let raw = &body[..end];
        let lexical = unescape_literal_checked_cow(raw).map_err(|e| {
            LexError::new(&e.lexeme, NtriplesErrorKind::BadEscape { reason: e.reason })
        })?;
        let mut tail = &body[end + 1..];
        let term = if let Some(t) = tail.strip_prefix("^^<") {
            let close = t
                .find('>')
                .ok_or_else(|| LexError::new(tail, NtriplesErrorKind::UnterminatedDatatype))?;
            let dt = &t[..close];
            tail = &t[close + 1..];
            TermRef::Literal { lexical, datatype: dt, lang: None }
        } else if let Some(t) = tail.strip_prefix('@') {
            let end = t
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(t.len());
            let lang = &t[..end];
            tail = &t[end..];
            TermRef::Literal { lexical, datatype: rdf::LANG_STRING, lang: Some(lang) }
        } else {
            TermRef::Literal { lexical, datatype: xsd::STRING, lang: None }
        };
        *rest = tail;
        Ok(term)
    } else {
        Err(LexError::new(s, NtriplesErrorKind::UnparsableTerm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut g = Graph::new();
        g.add(Term::iri("http://s"), Term::iri("http://p"), Term::integer(42));
        g.add(Term::blank("b0"), Term::iri("http://p"), Term::string("x \"y\" z"));
        g.add(
            Term::iri("http://s"),
            Term::iri("http://p"),
            Term::Literal(Literal::lang_string("bonjour", "fr")),
        );
        let text = serialize(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g.into_triples(), g2.into_triples());
    }

    #[test]
    fn reports_line_numbers_and_lexeme() {
        let err = parse("<http://s> <http://p> <http://o> .\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, NtriplesErrorKind::UnparsableTerm);
        assert!(err.lexeme.starts_with("bogus"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn skips_comments_and_blanks() {
        let g = parse("# header\n\n<http://s> <http://p> \"v\" .\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn accepts_bom_and_crlf() {
        let g = parse("\u{feff}<http://s> <http://p> \"v\" .\r\n<http://s> <http://p> \"w\" .\r\n")
            .unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn rejects_lone_surrogate_escape() {
        let err = parse("<http://s> <http://p> \"\\uD83D\" .\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            matches!(err.kind, NtriplesErrorKind::BadEscape { reason } if reason.contains("surrogate")),
            "{err:?}"
        );
        assert_eq!(err.lexeme, "\\uD83D");
    }

    #[test]
    fn lexer_borrows_unless_escapes_rewrite() {
        let line = r#"<http://s> <http://p> "plain value" ."#;
        let [_, _, o] = lex_line(line).unwrap().unwrap();
        match &o {
            TermRef::Literal { lexical: Cow::Borrowed(_), .. } => {}
            other => panic!("expected borrowed lexical, got {other:?}"),
        }
        let line = r#"<http://s> <http://p> "two\nlines" ."#;
        let [_, _, o] = lex_line(line).unwrap().unwrap();
        match &o {
            TermRef::Literal { lexical: Cow::Owned(s), .. } => assert_eq!(s, "two\nlines"),
            other => panic!("expected owned lexical, got {other:?}"),
        }
    }

    #[test]
    fn term_ref_matches_owned_term() {
        let line = r#"<http://s> <http://p> "bonjour"@fr ."#;
        let [s, p, o] = lex_line(line).unwrap().unwrap();
        assert_eq!(s, Term::iri("http://s"));
        assert_eq!(p.to_term(), Term::iri("http://p"));
        assert_eq!(o, Term::Literal(Literal::lang_string("bonjour", "fr")));
        assert_ne!(s, Term::blank("http://s"));
        assert!(lex_line("# comment").unwrap().is_none());
        assert!(lex_line("   ").unwrap().is_none());
    }

    #[test]
    fn typed_errors_cover_each_failure_shape() {
        let kind = |text: &str| parse(text).unwrap_err().kind;
        assert_eq!(kind("<http://s <http://p ."), NtriplesErrorKind::UnterminatedIri);
        assert_eq!(kind("<http://s> <http://p> \"v ."), NtriplesErrorKind::UnterminatedLiteral);
        assert_eq!(
            kind("<http://s> <http://p> \"v\"^^<http://t ."),
            NtriplesErrorKind::UnterminatedDatatype
        );
        assert_eq!(kind("<http://s> <http://p> \"v\""), NtriplesErrorKind::MissingDot);
        assert_eq!(kind("<http://s> <http://p> 42 ."), NtriplesErrorKind::UnparsableTerm);
    }
}
