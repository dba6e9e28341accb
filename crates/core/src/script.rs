//! Click scripts: the text form of an interaction state.
//!
//! Every button of the paper's GUI corresponds to one line. A script is
//! what a user types — the `rdfa` REPL reads each click command as a
//! one-line script — and what a session prints:
//! [`AnalyticsSession::script`] writes the current state as the clicks that
//! rebuild it, and `Display` prints exactly what [`Script::parse`] reads.
//!
//! ```text
//! prefix ex: <http://www.ics.forth.gr/example#>
//! class ex:Laptop
//! path ex:manufacturer/ex:origin = ex:USA
//! values ex:hardDrive ex:SSD1 ex:SSD2
//! range ex:USBPorts 2 4
//! group ex:manufacturer
//! group ex:releaseDate [year]
//! measure ex:price
//! ops avg sum max
//! having 0 >= 1200
//! run
//! ```
//!
//! Terms are written in N-Triples syntax — `<iri>`, `_:label`, `"lex"`,
//! `"lex"@lang`, `"lex"^^<datatype>` — or as a shorthand: a prefixed name,
//! a bare integer, decimal or date (`2021-06-10`). A path step written
//! `^p` is traversed inversely. Bare local names (`class Laptop`) are
//! resolved only by [`Script::parse_in`], against a store.

use crate::session::{AnalyticsSession, GroupSpec, MeasureSpec};
use crate::{AnalyticsError, AnswerFrame};
use rdfa_facets::PathStep;
use rdfa_hifun::{AggOp, CondOp, DerivedFn, Step};
use rdfa_model::term::{local_name, unescape_literal_checked};
use rdfa_model::{vocab::xsd, Date, Literal, Term, Value};
use rdfa_store::{ExtSet, Store, TermId};
use std::collections::HashMap;
use std::fmt;

/// One scripted action (one GUI interaction).
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `class <iri>` — click a class marker.
    SelectClass(Term),
    /// `value <prop> <term>` / `path p1/p2 = <term>` — click a value marker
    /// (possibly at the end of an expanded path); `values p1/p2 <term>
    /// <term> …` — tick several value checkboxes. A path step written `^p`
    /// is a [`Step::Inv`].
    SelectValues { path: Vec<Step>, values: Vec<Term> },
    /// `range p1/p2 <min|*> <max|*>` — the ⧩ filter.
    SelectRange { path: Vec<Step>, min: Option<Term>, max: Option<Term> },
    /// `group p1/p2 [year|month|day]` — click a G button.
    AddGrouping { path: Vec<Term>, derived: Option<DerivedFn> },
    /// `measure p1/p2 [year|month|day]` — click the ⨊ button's attribute.
    SetMeasure { path: Vec<Term>, derived: Option<DerivedFn> },
    /// `ops avg sum …` — pick the aggregate operations.
    SetOps(Vec<AggOp>),
    /// `having <op-index> <cmp> <term>` — a result restriction.
    AddHaving { op_index: usize, cond: CondOp, value: Term },
    /// `run` — evaluate the current intention into an Answer Frame.
    Run,
    /// `back` — undo the last faceted transition.
    Back,
    /// `clear` — reset the analytics state (G/⨊ selections).
    ClearAnalytics,
}

/// A parsed script: the action list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Script {
    pub actions: Vec<Action>,
}

/// Parse errors carry the 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

const CONDS: [CondOp; 6] = [CondOp::Eq, CondOp::Ne, CondOp::Lt, CondOp::Le, CondOp::Gt, CondOp::Ge];
const DERIVED: [DerivedFn; 3] = [DerivedFn::Year, DerivedFn::Month, DerivedFn::Day];

impl Script {
    /// Parse a script text. Names must be `<iri>`s or prefixed names.
    pub fn parse(text: &str) -> Result<Script, ScriptError> {
        Parser::new(None).script(text)
    }

    /// Parse a script text, resolving bare local names (`class Laptop`)
    /// against `store`: a name must match the local name of exactly one
    /// IRI in it.
    pub fn parse_in(text: &str, store: &Store) -> Result<Script, ScriptError> {
        Parser::new(Some(store)).script(text)
    }

    /// Apply the script to a session; returns the Answer Frame of each `run`.
    pub fn apply(
        &self,
        session: &mut AnalyticsSession<'_>,
    ) -> Result<Vec<AnswerFrame>, AnalyticsError> {
        let mut frames = Vec::new();
        for action in &self.actions {
            let store = session.store();
            match action {
                Action::SelectClass(c) => session.select_class(lookup(store, c)?)?,
                Action::SelectValues { path, values } => {
                    let values: ExtSet =
                        values.iter().map(|v| lookup(store, v)).collect::<Result<_, _>>()?;
                    session.select_values(&lookup_path(store, path)?, &values)?
                }
                Action::SelectRange { path, min, max } => session.select_range(
                    &lookup_path(store, path)?,
                    min.as_ref().map(Value::from_term),
                    max.as_ref().map(Value::from_term),
                )?,
                Action::AddGrouping { path, derived } => {
                    let path = lookup_props(store, path)?;
                    session.add_grouping(GroupSpec { path, derived: *derived })
                }
                Action::SetMeasure { path, derived } => {
                    let path = lookup_props(store, path)?;
                    session.set_measure(MeasureSpec { path, derived: *derived })
                }
                Action::SetOps(ops) => session.set_ops(ops.clone()),
                Action::AddHaving { op_index, cond, value } => {
                    session.add_having(*op_index, *cond, value.clone())?
                }
                Action::Run => frames.push(session.run()?),
                Action::Back => {
                    session.facets_mut().back();
                }
                Action::ClearAnalytics => session.clear_analytics(),
            }
        }
        Ok(frames)
    }

    /// Parse and apply in one step over a fresh session.
    pub fn run_on(store: &Store, text: &str) -> Result<Vec<AnswerFrame>, AnalyticsError> {
        let script = Script::parse(text).map_err(|e| AnalyticsError::new(e.to_string()))?;
        let mut session = AnalyticsSession::start(store);
        script.apply(&mut session)
    }

    /// Number of UI actions (excluding `run`) — the difficulty measure the
    /// user-study model uses.
    pub fn ui_action_count(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| !matches!(a, Action::Run))
            .count()
    }
}

/// Resolve a property path written as in a script (`p1/^p2`, bare local
/// names allowed) against a store.
pub fn resolve_path(store: &Store, text: &str) -> Result<Vec<PathStep>, String> {
    let steps = Parser::new(Some(store)).path(text)?;
    lookup_path(store, &steps).map_err(|e| e.message)
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.actions.iter().try_for_each(|action| writeln!(f, "{action}"))
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let derived = |d: &Option<DerivedFn>| d.map(|d| format!(" {}", derived_word(d)));
        match self {
            Action::SelectClass(c) => write!(f, "class {c}"),
            Action::SelectValues { path, values } => {
                let values: Vec<String> = values.iter().map(text).collect();
                match (path.len(), &values[..]) {
                    (1, [value]) => write!(f, "value {} {value}", steps(path)),
                    (_, [value]) => write!(f, "path {} = {value}", steps(path)),
                    _ => write!(f, "values {} {}", steps(path), values.join(" ")),
                }
            }
            Action::SelectRange { path, min, max } => {
                let bound = |b: &Option<Term>| b.as_ref().map_or("*".to_owned(), text);
                write!(f, "range {} {} {}", steps(path), bound(min), bound(max))
            }
            Action::AddGrouping { path, derived: d } => {
                write!(f, "group {}{}", props(path), derived(d).unwrap_or_default())
            }
            Action::SetMeasure { path, derived: d } => {
                write!(f, "measure {}{}", props(path), derived(d).unwrap_or_default())
            }
            Action::SetOps(ops) => {
                let ops: Vec<&str> = ops.iter().map(|op| op.label()).collect();
                write!(f, "ops {}", ops.join(" "))
            }
            Action::AddHaving { op_index, cond, value } => {
                write!(f, "having {op_index} {} {}", cond.sparql(), text(value))
            }
            Action::Run => f.write_str("run"),
            Action::Back => f.write_str("back"),
            Action::ClearAnalytics => f.write_str("clear"),
        }
    }
}

fn steps(path: &[Step]) -> String {
    let step = |(iri, inverse): (&str, bool)| format!("{}<{iri}>", if inverse { "^" } else { "" });
    let steps: Vec<String> = path.iter().filter_map(Step::property).map(step).collect();
    steps.join("/")
}

fn props(path: &[Term]) -> String {
    path.iter().map(Term::to_string).collect::<Vec<_>>().join("/")
}

fn derived_word(d: DerivedFn) -> String {
    format!("[{}]", d.sparql().to_lowercase())
}

/// A term in its shorthand form when that reads back as the same term, in
/// N-Triples syntax otherwise.
fn text(t: &Term) -> String {
    match t {
        Term::Literal(l) if shorthand(&l.lexical).as_ref() == Some(t) => l.lexical.clone(),
        t => t.to_string(),
    }
}

/// A bare integer, decimal or date.
fn shorthand(w: &str) -> Option<Term> {
    if !w.starts_with(|c: char| c.is_ascii_digit() || "+-.".contains(c)) {
        return None;
    }
    if let Ok(v) = w.parse::<i64>() {
        return Some(Term::integer(v));
    }
    if let Some(v) = w.parse::<f64>().ok().filter(|v| v.is_finite()) {
        return Some(Term::decimal(v));
    }
    Date::parse(w).map(|d| Term::Literal(Literal::typed(d.to_string(), xsd::DATE)))
}

struct Parser<'s> {
    store: Option<&'s Store>,
    prefixes: HashMap<String, String>,
}

/// The words of one line after its verb, consumed left to right.
struct Args<'l> {
    verb: &'l str,
    words: std::slice::Iter<'l, &'l str>,
}

impl<'l> Args<'l> {
    fn next(&mut self, what: &str) -> Result<&'l str, String> {
        self.words.next().copied().ok_or_else(|| format!("{} needs {what}", self.verb))
    }

    fn done(&mut self) -> Result<(), String> {
        match self.words.next() {
            Some(extra) => Err(format!("unexpected '{extra}' after {}", self.verb)),
            None => Ok(()),
        }
    }
}

impl<'s> Parser<'s> {
    fn new(store: Option<&'s Store>) -> Self {
        Parser { store, prefixes: HashMap::new() }
    }

    fn script(mut self, text: &str) -> Result<Script, ScriptError> {
        let mut actions = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let action = self.line(line);
            actions.extend(action.map_err(|message| ScriptError { line: lineno + 1, message })?);
        }
        Ok(Script { actions })
    }

    fn line(&mut self, line: &str) -> Result<Option<Action>, String> {
        let words = tokenize(line)?;
        let Some((verb, rest)) = words.split_first() else {
            return Ok(None);
        };
        let mut args = Args { verb, words: rest.iter() };
        let action = match *verb {
            "prefix" => {
                let name = args.next("a name")?;
                let name = name.strip_suffix(':').ok_or("prefix needs a name ending in ':'")?;
                let iri = args.next("an <iri>")?;
                let iri = bracketed(iri).ok_or("prefix needs an <iri>")??;
                args.done()?;
                self.prefixes.insert(name.to_owned(), iri);
                return Ok(None);
            }
            "class" => Action::SelectClass(self.resource(args.next("a class")?)?),
            "value" => {
                let path = self.path(args.next("a property")?)?;
                Action::SelectValues { path, values: vec![self.term(args.next("a term")?)?] }
            }
            "path" => {
                let path = self.path(args.next("a property path")?)?;
                if args.next("'= term'")? != "=" {
                    return Err("path needs '= term'".into());
                }
                let value = self.term(args.next("a term after '='")?)?;
                Action::SelectValues { path, values: vec![value] }
            }
            "values" => {
                let path = self.path(args.next("a property path")?)?;
                let values: Vec<Term> =
                    args.words.by_ref().map(|w| self.term(w)).collect::<Result<_, _>>()?;
                if values.is_empty() {
                    return Err("values needs at least one term".into());
                }
                Action::SelectValues { path, values }
            }
            "range" => {
                let path = self.path(args.next("a property path")?)?;
                let mut bound = |what| match args.next(what)? {
                    "*" => Ok(None),
                    w => self.term(w).map(Some),
                };
                let min = bound("<min|*>")?;
                let max = bound("<max|*>")?;
                Action::SelectRange { path, min, max }
            }
            "group" | "measure" => {
                let path = self.props(args.next("a property path")?)?;
                let derived = args
                    .words
                    .next()
                    .map(|w| {
                        DERIVED
                            .into_iter()
                            .find(|d| derived_word(*d) == *w)
                            .ok_or_else(|| format!("unknown derived '{w}'"))
                    })
                    .transpose()?;
                if *verb == "group" {
                    Action::AddGrouping { path, derived }
                } else {
                    Action::SetMeasure { path, derived }
                }
            }
            "ops" => {
                let ops = args
                    .words
                    .by_ref()
                    .map(|w| {
                        AggOp::all()
                            .into_iter()
                            .find(|op| op.label() == *w)
                            .ok_or_else(|| format!("unknown op '{w}'"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if ops.is_empty() {
                    return Err("ops needs at least one operation".into());
                }
                Action::SetOps(ops)
            }
            "having" => {
                let op_index = args.next("an op index")?;
                let op_index = op_index.parse().map_err(|_| format!("bad op index '{op_index}'"))?;
                let cond = args.next("a comparator")?;
                let cond = CONDS
                    .into_iter()
                    .find(|c| c.sparql() == cond)
                    .ok_or_else(|| format!("bad comparator '{cond}'"))?;
                Action::AddHaving { op_index, cond, value: self.term(args.next("a value")?)? }
            }
            "run" => Action::Run,
            "back" => Action::Back,
            "clear" => Action::ClearAnalytics,
            other => return Err(format!("unknown action '{other}'")),
        };
        args.done()?;
        Ok(Some(action))
    }

    /// `p1/^p2/…`: split on `/` outside `<…>`.
    fn path(&self, word: &str) -> Result<Vec<Step>, String> {
        let mut parts = Vec::new();
        let (mut angle, mut start) = (false, 0);
        for (i, c) in word.char_indices() {
            match c {
                '<' => angle = true,
                '>' => angle = false,
                '/' if !angle => {
                    parts.push(&word[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push(&word[start..]);
        parts
            .into_iter()
            .map(|part| match part.strip_prefix('^') {
                Some(prop) => Ok(Step::Inv(self.iri(prop)?)),
                None => Ok(Step::Prop(self.iri(part)?)),
            })
            .collect()
    }

    /// A forward-only path (groupings and measures).
    fn props(&self, word: &str) -> Result<Vec<Term>, String> {
        self.path(word)?
            .into_iter()
            .map(|s| match s {
                Step::Prop(iri) => Ok(Term::Iri(iri)),
                _ => Err(format!("inverse step in '{word}'")),
            })
            .collect()
    }

    /// Any term: a literal, a shorthand, or a resource.
    fn term(&self, w: &str) -> Result<Term, String> {
        if let Some(body) = w.strip_prefix('"') {
            return self.literal(body);
        }
        match shorthand(w) {
            Some(t) => Ok(t),
            None => self.resource(w),
        }
    }

    /// An IRI or a blank node.
    fn resource(&self, w: &str) -> Result<Term, String> {
        if let Some(label) = w.strip_prefix("_:") {
            let valid = |c: char| c.is_alphanumeric() || "_-.".contains(c);
            if label.is_empty() || !label.chars().all(valid) {
                return Err(format!("bad blank node '{w}'"));
            }
            return Ok(Term::blank(label));
        }
        self.iri(w).map(Term::Iri)
    }

    fn iri(&self, w: &str) -> Result<String, String> {
        if let Some(iri) = bracketed(w) {
            return iri;
        }
        if let Some((prefix, local)) = w.split_once(':') {
            let ns = self.prefixes.get(prefix);
            let ns = ns.ok_or_else(|| format!("undeclared prefix '{prefix}:'"))?;
            return checked_iri(format!("{ns}{local}"));
        }
        let store =
            self.store.ok_or_else(|| format!("'{w}' is no <iri>, prefixed name or literal"))?;
        let matches: Vec<&str> = store
            .terms()
            .filter_map(|(_, t)| t.as_iri())
            .filter(|iri| local_name(iri) == w)
            .collect();
        match matches[..] {
            [] => Err(format!("no resource named '{w}'")),
            [iri] => Ok(iri.to_owned()),
            _ => Err(format!("'{w}' is ambiguous ({} matches); use a full <iri>", matches.len())),
        }
    }

    /// `"lex"`, `"lex"@lang` or `"lex"^^<datatype>`, after the opening quote.
    fn literal(&self, body: &str) -> Result<Term, String> {
        let mut escaped = false;
        let close = body
            .char_indices()
            .find(|&(_, c)| {
                let closes = c == '"' && !escaped;
                escaped = c == '\\' && !escaped;
                closes
            })
            .map(|(i, _)| i)
            .ok_or("unterminated literal")?;
        let lexical = unescape_literal_checked(&body[..close]).map_err(|e| e.to_string())?;
        let suffix = &body[close + 1..];
        let literal = if suffix.is_empty() {
            Literal::string(lexical)
        } else if let Some(lang) = suffix.strip_prefix('@') {
            if lang.is_empty() || !lang.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
                return Err(format!("bad language tag '{lang}'"));
            }
            Literal::lang_string(lexical, lang)
        } else if let Some(datatype) = suffix.strip_prefix("^^") {
            Literal::typed(lexical, self.iri(datatype)?)
        } else {
            return Err(format!("unexpected '{suffix}' after a literal"));
        };
        Ok(Term::Literal(literal))
    }
}

/// The IRI of an `<iri>` word, `None` for any other word.
fn bracketed(w: &str) -> Option<Result<String, String>> {
    let inner = w.strip_prefix('<')?;
    Some(match inner.strip_suffix('>') {
        Some(iri) => checked_iri(iri.to_owned()),
        None => Err(format!("bad IRI '{w}'")),
    })
}

/// Reject what N-Triples does not allow inside `<…>`, so every IRI prints
/// back as one word.
fn checked_iri(iri: String) -> Result<String, String> {
    match iri.chars().find(|&c| c <= ' ' || "<>\"{}|^`\\".contains(c)) {
        Some(c) => Err(format!("{c:?} is not allowed in IRI <{iri}>")),
        None => Ok(iri),
    }
}

/// Split a line into words on whitespace outside `"…"` and `<…>`; a word
/// starting with `#` begins a comment. `<` and `<=` standing alone are
/// comparators, not IRIs.
fn tokenize(line: &str) -> Result<Vec<&str>, String> {
    let mut words = Vec::new();
    let mut rest = line.trim_start();
    while !rest.is_empty() && !rest.starts_with('#') {
        let first = rest.split_whitespace().next().unwrap_or_default();
        let len = if first == "<" || first == "<=" {
            first.len()
        } else {
            let (mut quote, mut angle, mut escaped) = (false, false, false);
            let end = rest.char_indices().find(|&(_, c)| {
                match c {
                    '"' if !angle && !escaped => quote = !quote,
                    '<' if !quote => angle = true,
                    '>' if !quote => angle = false,
                    _ => {}
                }
                escaped = quote && c == '\\' && !escaped;
                c.is_whitespace() && !quote && !angle
            });
            if quote || angle {
                let what = if quote { "literal" } else { "IRI" };
                return Err(format!("unterminated {what} in '{rest}'"));
            }
            end.map_or(rest.len(), |(i, _)| i)
        };
        words.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    Ok(words)
}

fn lookup(store: &Store, term: &Term) -> Result<TermId, AnalyticsError> {
    store
        .lookup(term)
        .ok_or_else(|| AnalyticsError::new(format!("not in the KG: {term}")))
}

fn lookup_path(store: &Store, path: &[Step]) -> Result<Vec<PathStep>, AnalyticsError> {
    path.iter()
        .map(|s| {
            let step = s.property().ok_or_else(|| AnalyticsError::new("a derived step in a path"));
            let (iri, inverse) = step?;
            Ok(PathStep { prop: lookup(store, &Term::iri(iri))?, inverse })
        })
        .collect()
}

fn lookup_props(store: &Store, path: &[Term]) -> Result<Vec<TermId>, AnalyticsError> {
    path.iter().map(|t| lookup(store, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_datagen::products_fixture;

    fn store() -> Store {
        let mut s = Store::new();
        s.load_graph(&products_fixture());
        s
    }

    const HEADER: &str = "prefix ex: <http://www.ics.forth.gr/example#>\n";

    #[test]
    fn parse_all_verbs() {
        let text = format!(
            "{HEADER}\
             class ex:Laptop\n\
             value ex:manufacturer ex:DELL\n\
             path ex:manufacturer/ex:origin = ex:USA\n\
             range ex:USBPorts 2 4\n\
             range ex:price 500 *\n\
             group ex:manufacturer\n\
             group ex:releaseDate [year]\n\
             measure ex:price\n\
             ops avg sum max\n\
             having 0 >= 900\n\
             run\n\
             back\n\
             clear\n"
        );
        let script = Script::parse(&text).unwrap();
        assert_eq!(script.actions.len(), 13);
        assert_eq!(script.ui_action_count(), 12);
        assert_eq!(Script::parse(&script.to_string()).unwrap(), script);
    }

    #[test]
    fn fig_6_2_script_runs() {
        let s = store();
        let text = format!(
            "{HEADER}\
             class ex:Laptop\n\
             range ex:USBPorts 2 4\n\
             group ex:manufacturer\n\
             group ex:manufacturer/ex:origin\n\
             measure ex:price\n\
             ops avg sum max\n\
             run\n"
        );
        let frames = Script::run_on(&s, &text).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].headers.len(), 5);
        assert_eq!(frames[0].rows.len(), 2);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!("{HEADER}# a comment\n\nclass ex:Laptop # inline\n");
        let script = Script::parse(&text).unwrap();
        assert_eq!(script.actions.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Script::parse(&format!("{HEADER}class ex:Laptop\nfrobnicate\n")).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));
        // undeclared prefix is caught on its own line
        let e2 = Script::parse("class ex:Laptop").unwrap_err();
        assert_eq!(e2.line, 1);
    }

    #[test]
    fn derived_grouping_and_having() {
        let s = store();
        let text = format!(
            "{HEADER}\
             class ex:Laptop\n\
             group ex:releaseDate [year]\n\
             ops count\n\
             having 0 >= 3\n\
             run\n"
        );
        let frames = Script::run_on(&s, &text).unwrap();
        assert_eq!(frames[0].rows.len(), 1); // all 3 laptops are 2021
    }

    #[test]
    fn back_undoes_facet_click() {
        let s = store();
        let script = Script::parse(&format!(
            "{HEADER}class ex:Laptop\nvalue ex:manufacturer ex:DELL\nback\n"
        ))
        .unwrap();
        let mut session = AnalyticsSession::start(&s);
        script.apply(&mut session).unwrap();
        assert_eq!(session.facets().extension().len(), 3);
    }

    #[test]
    fn unknown_iri_reports_error() {
        let s = store();
        let err = Script::run_on(&s, &format!("{HEADER}class ex:Spaceship\n")).unwrap_err();
        assert!(err.message.contains("not in the KG"));
    }

    #[test]
    fn recorded_session_replays_identically() {
        // record a session's clicks, replay the exported script on a fresh
        // session, and compare the analytic answers
        let s = store();
        let id = |l: &str| s.lookup_iri(&format!("http://www.ics.forth.gr/example#{l}")).unwrap();
        let mut original = AnalyticsSession::start(&s);
        original.select_class(id("Laptop")).unwrap();
        original
            .select_range(
                &[rdfa_facets::PathStep::fwd(id("USBPorts"))],
                Some(Value::Int(2)),
                None,
            )
            .unwrap();
        original.add_grouping(GroupSpec::property(id("manufacturer")));
        original.set_measure(MeasureSpec::property(id("price")));
        original.set_ops(vec![AggOp::Avg]);
        let expected = original.run().unwrap();

        let script = original.script();
        assert!(script.ui_action_count() >= 5);
        let mut replay = AnalyticsSession::start(&s);
        script.apply(&mut replay).unwrap();
        let got = replay.run().unwrap();
        assert_eq!(expected.rows, got.rows);
    }

    #[test]
    fn recorded_date_range_replays() {
        let s = store();
        let id = |l: &str| s.lookup_iri(&format!("http://www.ics.forth.gr/example#{l}")).unwrap();
        let date = rdfa_model::Date::parse("2021-07-01").unwrap();
        let mut original = AnalyticsSession::start(&s);
        original.select_class(id("Laptop")).unwrap();
        original
            .select_range(
                &[rdfa_facets::PathStep::fwd(id("releaseDate"))],
                Some(Value::Date(date)),
                None,
            )
            .unwrap();
        let expected = original.facets().extension().clone();
        let mut replay = AnalyticsSession::start(&s);
        original.script().apply(&mut replay).unwrap();
        assert_eq!(replay.facets().extension(), &expected);
    }

    #[test]
    fn full_iri_paths_with_slashes() {
        let s = store();
        let text = "class <http://www.ics.forth.gr/example#Laptop>\n\
                    group <http://www.ics.forth.gr/example#manufacturer>/<http://www.ics.forth.gr/example#origin>\n\
                    ops count\nrun\n";
        let frames = Script::run_on(&s, text).unwrap();
        assert_eq!(frames[0].rows.len(), 2);
    }

    fn id(s: &Store, local: &str) -> TermId {
        s.lookup_iri(&format!("http://www.ics.forth.gr/example#{local}")).unwrap()
    }

    /// The original's script, printed, parsed back and applied to a fresh
    /// session.
    fn replayed<'s>(s: &'s Store, original: &AnalyticsSession<'_>) -> AnalyticsSession<'s> {
        let script = original.script();
        assert_eq!(Script::parse(&script.to_string()).unwrap(), script, "{script}");
        let mut replay = AnalyticsSession::start(s);
        script.apply(&mut replay).unwrap();
        assert_eq!(replay.facets().extension(), original.facets().extension());
        assert_eq!(replay.facets().intent_sparql(), original.facets().intent_sparql());
        replay
    }

    #[test]
    fn removed_grouping_stays_removed_on_replay() {
        let s = store();
        let mut original = AnalyticsSession::start(&s);
        original.add_grouping(GroupSpec::property(id(&s, "manufacturer")));
        original.add_grouping(GroupSpec::property(id(&s, "USBPorts")));
        original.remove_grouping(0);
        assert_eq!(replayed(&s, &original).groupings(), original.groupings());
    }

    #[test]
    fn back_is_replayed_as_the_state_it_left() {
        let s = store();
        let mut original = AnalyticsSession::start(&s);
        original.select_class(id(&s, "Laptop")).unwrap();
        original.select_value(id(&s, "manufacturer"), id(&s, "DELL")).unwrap();
        original.facets_mut().back();
        assert_eq!(replayed(&s, &original).facets().extension().len(), 3);
    }

    #[test]
    fn multi_select_is_replayed() {
        let s = store();
        let mut original = AnalyticsSession::start(&s);
        original.select_class(id(&s, "Laptop")).unwrap();
        let values: ExtSet = [id(&s, "DELL"), id(&s, "Maxtor")].into_iter().collect();
        original.select_values(&[PathStep::fwd(id(&s, "manufacturer"))], &values).unwrap();
        assert!(original.script().to_string().contains("values "));
        assert_eq!(replayed(&s, &original).facets().extension().len(), 2);
    }

    #[test]
    fn cleared_measure_stays_cleared_on_replay() {
        let s = store();
        let mut original = AnalyticsSession::start(&s);
        original.set_measure(MeasureSpec::property(id(&s, "price")));
        original.set_ops(vec![AggOp::Avg]);
        original.clear_analytics();
        let replay = replayed(&s, &original);
        assert_eq!(replay.script(), original.script());
        assert!(replay.script().actions.is_empty());
    }

    #[test]
    fn every_form_prints_and_parses_back() {
        let text = format!(
            "{HEADER}\
             class ex:Laptop\n\
             class _:b0\n\
             value ^ex:manufacturer ex:laptop1\n\
             path ex:manufacturer/^ex:manufacturer = ex:laptop2\n\
             values ex:manufacturer/ex:origin ex:USA <http://www.ics.forth.gr/example#China>\n\
             range ex:price 500.5 *\n\
             range ex:releaseDate * 2021-09-03\n\
             value ex:label \"a \\\"quoted\\\" # word\"@en-GB\n\
             value ex:code \"007\"^^ex:code\n\
             value ex:code \"7\"\n\
             group ex:releaseDate [month]\n\
             measure ex:releaseDate [year]\n\
             ops count avg\n\
             having 1 <= 3\n\
             having 0 < \"x\"\n\
             back\n\
             clear\n\
             run\n"
        );
        let script = Script::parse(&text).unwrap();
        assert_eq!(script.actions.len(), 18);
        let printed = script.to_string();
        assert_eq!(Script::parse(&printed).unwrap(), script, "{printed}");
        for line in [
            "range <http://www.ics.forth.gr/example#price> 500.5 *\n",
            "value <http://www.ics.forth.gr/example#code> \"7\"\n",
            "value ^<http://www.ics.forth.gr/example#manufacturer> ",
        ] {
            assert!(printed.contains(line), "{printed}");
        }
    }

    #[test]
    fn malformed_terms_are_rejected() {
        for line in [
            "class <http://e/a b>",
            "class <http://e/a",
            "value <http://e/p> \"open",
            "value <http://e/p> \"x\"@",
            "value <http://e/p> \"x\"junk",
            "value <http://e/p> \"\\q\"",
            "group ^<http://e/p>",
            "measure <http://e/p> [week]",
            "class Laptop",
            "class <http://e/a> <http://e/b>",
            "values <http://e/p>",
            "having x = 1",
            "having 0 =< 1",
        ] {
            assert!(Script::parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn bare_names_resolve_against_a_store() {
        let s = store();
        let text = "class Laptop\nvalue manufacturer DELL\nrange price 800 *";
        let script = Script::parse_in(text, &s).unwrap();
        let mut session = AnalyticsSession::start(&s);
        script.apply(&mut session).unwrap();
        assert_eq!(session.facets().extension().len(), 2);
        let err = Script::parse_in("class Spaceship", &s).unwrap_err();
        assert!(err.message.contains("no resource named 'Spaceship'"), "{err}");
        assert_eq!(resolve_path(&s, "manufacturer/origin").unwrap().len(), 2);
    }
}
