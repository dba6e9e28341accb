//! Query result types returned at the public API boundary, with text,
//! CSV, and W3C SPARQL-JSON serializations.

use rdfa_model::json::push_json_string;
use rdfa_model::{vocab::xsd, Graph, Literal, Term, Value};

/// A solution sequence: named columns plus rows of optional terms
/// (`None` = unbound, e.g. under `OPTIONAL`).
#[derive(Debug, Clone, PartialEq)]
pub struct Solutions {
    vars: Vec<String>,
    rows: Vec<Vec<Option<Term>>>,
}

impl Solutions {
    /// Build a solution table from column names and rows.
    pub fn new(vars: Vec<String>, rows: Vec<Vec<Option<Term>>>) -> Self {
        Solutions { vars, rows }
    }

    /// The projected variable names, in column order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The solution rows (one `Option<Term>` per column; `None` = unbound).
    pub fn rows(&self) -> &[Vec<Option<Term>>] {
        &self.rows
    }

    /// Consume into the row set without cloning.
    pub fn into_rows(self) -> Vec<Vec<Option<Term>>> {
        self.rows
    }

    /// Number of solution rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the solution sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a variable by name.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// Iterate one column as terms (unbound cells skipped).
    pub fn column<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Term> + 'a {
        let idx = self.var_index(name);
        self.rows
            .iter()
            .filter_map(move |row| idx.and_then(|i| row[i].as_ref()))
    }

    /// Interpret one column as typed values.
    pub fn column_values(&self, name: &str) -> Vec<Value> {
        self.column(name).map(Value::from_term).collect()
    }

    /// Render as a plain-text table (used by examples and tests).
    /// Column widths are measured in characters, not bytes, so non-ASCII
    /// IRIs and literals stay aligned.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.vars.iter().map(|v| v.chars().count() + 1).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let s = c.as_ref().map(|t| t.display_name()).unwrap_or_default();
                        widths[i] = widths[i].max(s.chars().count());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, v) in self.vars.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", format!("?{v}"), w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.vars.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Append one field of the SPARQL CSV results format: `prefix` then `s`,
/// RFC-4180 quoted (the whole field in `"`, every `"` doubled) when `s`
/// holds a comma, a quote or a line break. `prefix` is a blank node's `_:`
/// or empty, and never needs quoting itself.
fn push_csv_field(out: &mut String, prefix: &str, s: &str) {
    if !s.contains([',', '"', '\n', '\r']) {
        out.push_str(prefix);
        out.push_str(s);
        return;
    }
    out.push('"');
    out.push_str(prefix);
    for (i, piece) in s.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(piece);
    }
    out.push('"');
}

/// Append one term in the W3C SPARQL-JSON binding shape.
fn push_term_json(out: &mut String, t: &Term) {
    match t {
        Term::Iri(iri) => {
            out.push_str("{\"type\":\"uri\",\"value\":");
            push_json_string(out, iri);
        }
        Term::Blank(b) => {
            out.push_str("{\"type\":\"bnode\",\"value\":");
            push_json_string(out, b);
        }
        Term::Literal(Literal { lexical, lang: Some(lang), .. }) => {
            out.push_str("{\"type\":\"literal\",\"xml:lang\":");
            push_json_string(out, lang);
            out.push_str(",\"value\":");
            push_json_string(out, lexical);
        }
        Term::Literal(Literal { lexical, datatype, lang: None }) => {
            out.push_str("{\"type\":\"literal\",");
            if datatype != xsd::STRING {
                out.push_str("\"datatype\":");
                push_json_string(out, datatype);
                out.push(',');
            }
            out.push_str("\"value\":");
            push_json_string(out, lexical);
        }
    }
    out.push('}');
}

impl Solutions {
    /// Serialize per the SPARQL 1.1 CSV results format: a header of bare
    /// variable names, then value rows (IRIs bare, literal lexical forms,
    /// RFC-4180 quoting, CRLF line endings).
    pub fn to_csv(&self) -> String {
        let mut out = Vec::with_capacity(64 * self.rows.len().max(1));
        self.write_csv(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("CSV serialization is UTF-8")
    }

    /// Stream the SPARQL 1.1 CSV serialization row by row into `out`.
    /// Memory stays bounded by one row regardless of result size — this is
    /// what the server's chunked-transfer path calls, so a `LIMIT`-less
    /// SELECT never builds a whole-body `String`. Each row is escaped
    /// straight from the terms into one reused buffer.
    pub fn write_csv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut line = String::new();
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            push_csv_field(&mut line, "", v);
        }
        line.push_str("\r\n");
        out.write_all(line.as_bytes())?;
        for row in &self.rows {
            line.clear();
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                match c {
                    None => {}
                    Some(Term::Iri(iri)) => push_csv_field(&mut line, "", iri),
                    Some(Term::Blank(b)) => push_csv_field(&mut line, "_:", b),
                    Some(Term::Literal(l)) => push_csv_field(&mut line, "", &l.lexical),
                }
            }
            line.push_str("\r\n");
            out.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Serialize per the W3C "SPARQL 1.1 Query Results JSON Format":
    /// `{"head":{"vars":[…]},"results":{"bindings":[…]}}`.
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(128 * self.rows.len().max(1));
        self.write_json(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("JSON serialization is UTF-8")
    }

    /// Stream the W3C SPARQL-JSON serialization binding by binding into
    /// `out`; the streaming counterpart of [`Solutions::to_json`]. The
    /// `"var":` keys are escaped once per response; each binding is escaped
    /// straight from the terms into one reused buffer.
    pub fn write_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut buf = String::from("{\"head\":{\"vars\":[");
        let mut keys = Vec::with_capacity(self.vars.len());
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let mut key = String::new();
            push_json_string(&mut key, v);
            buf.push_str(&key);
            key.push(':');
            keys.push(key);
        }
        buf.push_str("]},\"results\":{\"bindings\":[");
        out.write_all(buf.as_bytes())?;
        for (r, row) in self.rows.iter().enumerate() {
            buf.clear();
            if r > 0 {
                buf.push(',');
            }
            buf.push('{');
            let mut first = true;
            for (key, c) in keys.iter().zip(row) {
                if let Some(t) = c {
                    if !first {
                        buf.push(',');
                    }
                    first = false;
                    buf.push_str(key);
                    push_term_json(&mut buf, t);
                }
            }
            buf.push('}');
            out.write_all(buf.as_bytes())?;
        }
        out.write_all(b"]}}")
    }
}

/// The result of a query: a solution table, a constructed graph, or a boolean.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResults {
    Solutions(Solutions),
    Graph(Graph),
    Boolean(bool),
}

impl QueryResults {
    /// The solutions, if this was a SELECT.
    pub fn solutions(&self) -> Option<&Solutions> {
        match self {
            QueryResults::Solutions(s) => Some(s),
            _ => None,
        }
    }

    /// Consume into solutions.
    pub fn into_solutions(self) -> Option<Solutions> {
        match self {
            QueryResults::Solutions(s) => Some(s),
            _ => None,
        }
    }

    /// The constructed graph, if this was a CONSTRUCT.
    pub fn graph(&self) -> Option<&Graph> {
        match self {
            QueryResults::Graph(g) => Some(g),
            _ => None,
        }
    }

    /// The boolean, if this was an ASK.
    pub fn boolean(&self) -> Option<bool> {
        match self {
            QueryResults::Boolean(b) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-cell renderers the streaming writers replaced, kept as the
    /// byte-for-byte oracle of their output.
    mod oracle {
        use super::*;

        fn csv_field(s: &str) -> String {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }

        fn js(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }

        fn term_json(t: &Term) -> String {
            match t {
                Term::Iri(iri) => format!("{{\"type\":\"uri\",\"value\":{}}}", js(iri)),
                Term::Blank(b) => format!("{{\"type\":\"bnode\",\"value\":{}}}", js(b)),
                Term::Literal(Literal { lexical, lang: Some(lang), .. }) => format!(
                    "{{\"type\":\"literal\",\"xml:lang\":{},\"value\":{}}}",
                    js(lang),
                    js(lexical)
                ),
                Term::Literal(Literal { lexical, datatype, lang: None }) => {
                    if datatype == xsd::STRING {
                        format!("{{\"type\":\"literal\",\"value\":{}}}", js(lexical))
                    } else {
                        format!(
                            "{{\"type\":\"literal\",\"datatype\":{},\"value\":{}}}",
                            js(datatype),
                            js(lexical)
                        )
                    }
                }
            }
        }

        pub fn to_csv(s: &Solutions) -> String {
            let mut out = s.vars.iter().map(|v| csv_field(v)).collect::<Vec<_>>().join(",");
            out.push_str("\r\n");
            for row in &s.rows {
                let cells: Vec<String> = row
                    .iter()
                    .map(|c| match c {
                        None => String::new(),
                        Some(Term::Iri(iri)) => csv_field(iri),
                        Some(Term::Blank(b)) => csv_field(&format!("_:{b}")),
                        Some(Term::Literal(l)) => csv_field(&l.lexical),
                    })
                    .collect();
                out.push_str(&cells.join(","));
                out.push_str("\r\n");
            }
            out
        }

        pub fn to_json(s: &Solutions) -> String {
            let head = s.vars.iter().map(|v| js(v)).collect::<Vec<_>>().join(",");
            let bindings: Vec<String> = s
                .rows
                .iter()
                .map(|row| {
                    let cells: Vec<String> = s
                        .vars
                        .iter()
                        .zip(row)
                        .filter_map(|(v, c)| c.as_ref().map(|t| format!("{}:{}", js(v), term_json(t))))
                        .collect();
                    format!("{{{}}}", cells.join(","))
                })
                .collect();
            format!(
                "{{\"head\":{{\"vars\":[{head}]}},\"results\":{{\"bindings\":[{}]}}}}",
                bindings.join(",")
            )
        }
    }

    /// Deterministic xorshift stream, `0..n`.
    fn rng(seed: u64) -> impl FnMut(usize) -> usize {
        let mut x = seed;
        move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        }
    }

    /// A random string over every escape class of both formats: JSON's
    /// short escapes and `\u00xx` controls, CSV's comma, quote and line
    /// breaks, DEL, non-ASCII, and the empty string.
    fn random_text(next: &mut impl FnMut(usize) -> usize) -> String {
        const PIECES: [&str; 16] = [
            "", "a", "DELL", "\"", "\\", "\n", "\r", "\t", ",", "\u{1}", "\u{1f}", "\u{7f}", "é",
            "中", "🦀", "http://e/x#y",
        ];
        (0..next(6)).map(|_| PIECES[next(PIECES.len())]).collect()
    }

    fn random_term(next: &mut impl FnMut(usize) -> usize) -> Option<Term> {
        let text = random_text(next);
        Some(match next(7) {
            0 => return None,
            1 => Term::iri(text),
            2 => Term::blank(text),
            3 => Term::string(text),
            4 => Term::Literal(Literal::lang_string(text, random_text(next))),
            5 => Term::integer(next(1000) as i64 - 500),
            _ => Term::Literal(Literal {
                lexical: text,
                datatype: format!("http://e/dt{}", random_text(next)),
                lang: None,
            }),
        })
    }

    #[test]
    fn writers_match_the_per_cell_renderers_on_random_solutions() {
        for seed in 1..300u64 {
            let mut next = rng(seed * 0x9e37_79b9);
            let width = next(4);
            let vars: Vec<String> = (0..width).map(|_| random_text(&mut next)).collect();
            let rows: Vec<Vec<Option<Term>>> = (0..next(8))
                .map(|_| (0..width).map(|_| random_term(&mut next)).collect())
                .collect();
            let s = Solutions::new(vars, rows);
            assert_eq!(s.to_json(), oracle::to_json(&s), "seed {seed}: JSON");
            assert_eq!(s.to_csv(), oracle::to_csv(&s), "seed {seed}: CSV");
        }
    }

    #[test]
    fn csv_format() {
        let s = Solutions::new(
            vec!["m".into(), "n".into()],
            vec![
                vec![Some(Term::iri("http://e/DELL")), Some(Term::integer(2))],
                vec![Some(Term::string("a,b")), None],
            ],
        );
        let csv = s.to_csv();
        // SPARQL 1.1 CSV results require CRLF line endings (header and rows)
        assert_eq!(csv, "m,n\r\nhttp://e/DELL,2\r\n\"a,b\",\r\n");
    }

    #[test]
    fn csv_quoting_survives_embedded_newlines() {
        let s = Solutions::new(
            vec!["x".into()],
            vec![vec![Some(Term::string("line1\nline2"))], vec![Some(Term::string("say \"hi\""))]],
        );
        let csv = s.to_csv();
        assert_eq!(csv, "x\r\n\"line1\nline2\"\r\n\"say \"\"hi\"\"\"\r\n");
    }

    #[test]
    fn streaming_writers_match_string_serializers() {
        let s = Solutions::new(
            vec!["m".into(), "n".into()],
            vec![
                vec![Some(Term::iri("http://e/DELL")), Some(Term::integer(2))],
                vec![Some(Term::string("a,b")), None],
                vec![Some(Term::Literal(Literal::lang_string("héllo", "en"))), None],
            ],
        );
        let mut csv = Vec::new();
        s.write_csv(&mut csv).unwrap();
        assert_eq!(String::from_utf8(csv).unwrap(), s.to_csv());
        let mut json = Vec::new();
        s.write_json(&mut json).unwrap();
        assert_eq!(String::from_utf8(json).unwrap(), s.to_json());
    }

    #[test]
    fn json_format_matches_w3c_shape() {
        let s = Solutions::new(
            vec!["x".into()],
            vec![
                vec![Some(Term::iri("http://e/a"))],
                vec![Some(Term::integer(5))],
                vec![Some(Term::Literal(crate::results::Literal::lang_string("hi", "en")))],
                vec![None],
            ],
        );
        let json = s.to_json();
        assert!(json.starts_with("{\"head\":{\"vars\":[\"x\"]}"));
        assert!(json.contains("\"type\":\"uri\",\"value\":\"http://e/a\""));
        assert!(json.contains("\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\""));
        assert!(json.contains("\"xml:lang\":\"en\""));
        // unbound row serializes as an empty binding object
        assert!(json.contains("{}"));
    }

    #[test]
    fn json_escapes_control_characters() {
        let s = Solutions::new(vec!["x".into()], vec![vec![Some(Term::string("a\"b\\c\nd"))]]);
        let json = s.to_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    fn table_rendering_and_columns() {
        let s = Solutions::new(
            vec!["m".into(), "avg".into()],
            vec![
                vec![Some(Term::iri("http://e/DELL")), Some(Term::decimal(950.0))],
                vec![Some(Term::iri("http://e/ACER")), None],
            ],
        );
        let t = s.to_table();
        assert!(t.contains("?m"));
        assert!(t.contains("DELL"));
        assert_eq!(s.column("m").count(), 2);
        assert_eq!(s.column("avg").count(), 1);
        assert_eq!(s.column_values("avg"), vec![Value::Float(950.0)]);
    }
}
