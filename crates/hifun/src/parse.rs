//! Parser for HIFUN's textual notation — the form the paper writes queries
//! in: `(g, m, op)` triples with composition (`∘`), pairing (`⊗`),
//! restrictions (`attr>=v`), derived attributes (`month∘date`), the identity
//! measuring function `ID`, the empty grouping `ε`, and result restrictions
//! (`SUM/>1000`).
//!
//! A constrained root follows the triple after ` | `, as items joined by
//! `∧`: a seed `{i1, i2}`, a class (a term alone, `rdf:type∈{C}`), or a
//! condition on a path from the root. A condition is `path op value`,
//! `path∈{t1, t2}` (term identity) or `path∈[min, max]` (`*` leaves a side
//! open), and a path step written `^p` is followed inversely: `(manufacturer, price, AVG) | Laptop ∧
//! USBPorts∈[2, 4] ∧ ^ships∈{store1}`. Terms are names, `<iri>`s, `_:b`
//! blank nodes, bare integers, decimals and booleans, or N-Triples literals.
//! This is what [`HifunQuery::notation`] prints with the same namespace.
//!
//! Attribute names are resolved against a namespace; derived-function names
//! (`year`, `month`, `day`) are recognized positionally (they may only head
//! a composition, matching the expressibility rule of Chapter 7).
//!
//! ```
//! use rdfa_hifun::parse::parse_hifun;
//! let q = parse_hifun("(takesPlaceAt, inQuantity, SUM)", "http://e/").unwrap();
//! assert_eq!(q.to_string(), "(takesPlaceAt, inQuantity, SUM)");
//! ```

use crate::query::*;
use crate::HifunError;
use rdfa_model::{ntriples, Term};

/// Parse a HIFUN query written in the paper's notation. `ns` is prepended to
/// every bare attribute or value name.
pub fn parse_hifun(text: &str, ns: &str) -> Result<HifunQuery, HifunError> {
    let (tuple, root) = match split_top(text, '|')[..] {
        [tuple] => (tuple, None),
        [tuple, root] => (tuple, Some(root)),
        _ => return Err(HifunError::new("a HIFUN query has at most one root: (g, m, op) | root")),
    };
    let inner = tuple
        .trim()
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| HifunError::new("a HIFUN query is parenthesized: (g, m, op)"))?;
    let parts = split_top(inner, ',');
    if parts.len() < 3 {
        return Err(HifunError::new("expected three components: (g, m, op)"));
    }
    let g_text = parts[0].trim();
    let m_text = parts[1].trim();
    let ops_text: Vec<&str> = parts[2..].iter().map(|s| s.trim()).collect();

    // operations (plus optional result restriction per op: SUM/>1000)
    let mut ops = Vec::new();
    let mut result_restrictions = Vec::new();
    for (i, op_text) in ops_text.iter().enumerate() {
        let (op_name, restr) = match op_text.split_once('/') {
            Some((o, r)) => (o.trim(), Some(r.trim())),
            None => (*op_text, None),
        };
        let op = match op_name.to_ascii_uppercase().as_str() {
            "COUNT" => AggOp::Count,
            "SUM" => AggOp::Sum,
            "AVG" => AggOp::Avg,
            "MIN" => AggOp::Min,
            "MAX" => AggOp::Max,
            other => return Err(HifunError::new(format!("unknown operation '{other}'"))),
        };
        ops.push(op);
        if let Some(r) = restr {
            let (cond, value) = parse_condition(r, ns)?;
            result_restrictions.push(ResultRestriction { op_index: i, op: cond, value });
        }
    }

    // grouping: ε | component (⊗ component)*
    let mut groupings = Vec::new();
    if !(g_text.is_empty() || g_text == "ε" || g_text.eq_ignore_ascii_case("eps")) {
        for comp in split_top(g_text, '⊗') {
            groupings.push(parse_component(comp.trim(), ns)?);
        }
    }

    // measuring: ID | component
    let measuring = if m_text.eq_ignore_ascii_case("ID") {
        None
    } else {
        Some(parse_component(m_text, ns)?)
    };

    let mut q = HifunQuery::new(ops[0]);
    q.ops = ops;
    q.groupings = groupings;
    q.measuring = measuring;
    q.result_restrictions = result_restrictions;
    if let Some(root) = root {
        q.root = parse_root(root, ns)?;
    }
    Ok(q)
}

/// The root after ` | `: items joined by `∧`.
fn parse_root(text: &str, ns: &str) -> Result<Root, HifunError> {
    let mut root = Root::default();
    for item in split_top(text, '∧') {
        let item = item.trim();
        if item.is_empty() {
            return Err(HifunError::new("empty item in the root"));
        }
        if let Some(seed) = item.strip_prefix('{').and_then(|t| t.strip_suffix('}')) {
            if root.among.replace(parse_terms(seed, ns)?).is_some() {
                return Err(HifunError::new("a root has at most one seed {…}"));
            }
            continue;
        }
        match split_condition(item) {
            (class, None) => {
                root.conditions.push(Restriction::class(parse_value(class.trim(), ns)?))
            }
            (path, Some((op, value))) => root.conditions.push(Restriction {
                path: parse_path(path.trim(), ns)?.steps,
                test: parse_test(op, value, ns)?,
            }),
        }
    }
    Ok(root)
}

/// The test after a path: `op value`, `∈{t1, t2}` or `∈[min, max]`.
fn parse_test(op: &str, text: &str, ns: &str) -> Result<Test, HifunError> {
    let text = text.trim();
    if op != "∈" {
        return Ok(Test::Cmp(cond_op(op)?, parse_value(text, ns)?));
    }
    if let Some(terms) = text.strip_prefix('{').and_then(|t| t.strip_suffix('}')) {
        return Ok(Test::OneOf(parse_terms(terms, ns)?));
    }
    let bounds = text.strip_prefix('[').and_then(|t| t.strip_suffix(']'));
    match bounds.map(|b| split_top(b, ',')).as_deref() {
        Some([min, max]) => {
            let bound = |b: &str| match b.trim() {
                "*" => Ok(None),
                b => parse_value(b, ns).map(Some),
            };
            Ok(Test::Range { min: bound(min)?, max: bound(max)? })
        }
        _ => Err(HifunError::new(format!("expected {{t1, …}} or [min, max] after ∈: '{text}'"))),
    }
}

fn parse_terms(text: &str, ns: &str) -> Result<Vec<Term>, HifunError> {
    split_top(text, ',').into_iter().map(|t| parse_value(t.trim(), ns)).collect()
}

/// Split at a separator outside brackets, `"…"` literals and `<iri>`s.
fn split_top(text: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    let (mut quoted, mut escaped, mut in_iri) = (false, false, false);
    let mut chars = text.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if quoted {
            quoted = escaped || c != '"';
            escaped = !escaped && c == '\\';
            continue;
        }
        match c {
            '"' => quoted = true,
            '<' if matches!(chars.peek(), Some((_, n)) if n.is_ascii_alphabetic()) => in_iri = true,
            '>' => in_iri = false,
            _ if in_iri => {}
            '(' | '{' | '[' => depth += 1,
            ')' | '}' | ']' => depth = depth.saturating_sub(1),
            c if c == sep && depth == 0 => {
                parts.push(&text[start..i]);
                start = i + c.len_utf8();
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

/// One grouping/measuring component: a composition chain with an optional
/// trailing test (`origin∘manufacturer=USA`, `inQuantity>=2`, `price∈[1, 5]`).
fn parse_component(text: &str, ns: &str) -> Result<RestrictedPath, HifunError> {
    // find a top-level comparator
    let (path_text, cond) = split_condition(text);
    let mut rp = RestrictedPath::new(parse_path(path_text.trim(), ns)?);
    if let Some((op, value)) = cond {
        rp = rp.restricted(Restriction { path: Vec::new(), test: parse_test(op, value, ns)? });
    }
    Ok(rp)
}

/// The text before the first comparator or `∈` outside `<…>`, and the
/// operator with the text after it.
fn split_condition(text: &str) -> (&str, Option<(&str, &str)>) {
    let bytes = text.as_bytes();
    let mut in_iri = false;
    let mut i = 0;
    while i < bytes.len() {
        if !in_iri && bytes[i..].starts_with("∈".as_bytes()) {
            return (&text[..i], Some(("∈", &text[i + "∈".len()..])));
        }
        match bytes[i] {
            b'<' if !in_iri => {
                // '<' opens an IRI when followed by a scheme-ish char,
                // otherwise it is the comparator
                let next = bytes.get(i + 1).copied();
                if matches!(next, Some(c) if c.is_ascii_alphabetic()) {
                    in_iri = true;
                } else if next == Some(b'=') {
                    return (&text[..i], Some(("<=", &text[i + 2..])));
                } else {
                    return (&text[..i], Some(("<", &text[i + 1..])));
                }
            }
            b'>' if in_iri => in_iri = false,
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    return (&text[..i], Some((">=", &text[i + 2..])));
                }
                return (&text[..i], Some((">", &text[i + 1..])));
            }
            b'=' if !in_iri => return (&text[..i], Some(("=", &text[i + 1..]))),
            b'!' if !in_iri && bytes.get(i + 1) == Some(&b'=') => {
                return (&text[..i], Some(("!=", &text[i + 2..])));
            }
            _ => {}
        }
        i += 1;
    }
    (text, None)
}

fn cond_op(op: &str) -> Result<CondOp, HifunError> {
    Ok(match op {
        "=" => CondOp::Eq,
        "!=" => CondOp::Ne,
        "<" => CondOp::Lt,
        "<=" => CondOp::Le,
        ">" => CondOp::Gt,
        ">=" => CondOp::Ge,
        other => return Err(HifunError::new(format!("unknown comparator '{other}'"))),
    })
}

fn parse_condition(text: &str, ns: &str) -> Result<(CondOp, Term), HifunError> {
    let (lhs, cond) = split_condition(text);
    if !lhs.trim().is_empty() {
        return Err(HifunError::new(format!("unexpected '{lhs}' before comparator")));
    }
    let (op_text, value_text) =
        cond.ok_or_else(|| HifunError::new(format!("expected comparator in '{text}'")))?;
    Ok((cond_op(op_text)?, parse_value(value_text.trim(), ns)?))
}

/// A term: a bare integer, decimal or boolean, an N-Triples literal, a
/// `_:b` blank node, an `<iri>`, or a name resolved against `ns`.
pub(crate) fn parse_value(text: &str, ns: &str) -> Result<Term, HifunError> {
    if text.is_empty() {
        return Err(HifunError::new("a value is missing"));
    }
    if let Ok(v) = text.parse::<i64>() {
        return Ok(Term::integer(v));
    }
    if let Ok(v) = text.parse::<f64>() {
        return Ok(Term::decimal(v));
    }
    if text == "true" || text == "false" {
        return Ok(Term::boolean(text == "true"));
    }
    if text.starts_with('"') {
        return ntriples::parse_term(text)
            .ok_or_else(|| HifunError::new(format!("malformed literal {text}")));
    }
    if let Some(label) = text.strip_prefix("_:") {
        return Ok(Term::blank(label));
    }
    Ok(Term::iri(iri(text, ns)))
}

/// An `<iri>`, or a name resolved against `ns`.
fn iri(name: &str, ns: &str) -> String {
    match name.strip_prefix('<').and_then(|t| t.strip_suffix('>')) {
        Some(full) => full.to_owned(),
        None => format!("{ns}{name}"),
    }
}

/// Parse `f_k∘…∘f_1` — HIFUN composition is right-to-left, so the chain is
/// reversed into application order. `year|month|day` at the head become
/// derived steps, and `^p` an inverse step.
fn parse_path(text: &str, ns: &str) -> Result<AttrPath, HifunError> {
    let names: Vec<&str> = text.split('∘').map(str::trim).collect();
    if names.iter().any(|n| n.is_empty()) {
        return Err(HifunError::new(format!("malformed composition '{text}'")));
    }
    let mut steps = Vec::with_capacity(names.len());
    for (i, name) in names.iter().rev().enumerate() {
        let derived = match name.to_ascii_lowercase().as_str() {
            "year" => Some(DerivedFn::Year),
            "month" => Some(DerivedFn::Month),
            "day" => Some(DerivedFn::Day),
            _ => None,
        };
        match derived {
            Some(f) => {
                if i + 1 != names.len() {
                    return Err(HifunError::new(format!(
                        "derived function '{name}' must head the composition"
                    )));
                }
                steps.push(Step::Derived(f));
            }
            None => steps.push(match name.strip_prefix('^') {
                Some(name) => Step::Inv(iri(name, ns)),
                None => Step::Prop(iri(name, ns)),
            }),
        }
    }
    Ok(AttrPath { steps })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: &str = "http://e/";

    #[test]
    fn simple_triple() {
        let q = parse_hifun("(takesPlaceAt, inQuantity, SUM)", NS).unwrap();
        assert_eq!(q.groupings.len(), 1);
        assert_eq!(q.groupings[0].path, AttrPath::prop(format!("{NS}takesPlaceAt")));
        assert_eq!(q.ops, vec![AggOp::Sum]);
    }

    #[test]
    fn composition_is_right_to_left() {
        let q = parse_hifun("(brand∘delivers, inQuantity, SUM)", NS).unwrap();
        assert_eq!(
            q.groupings[0].path,
            AttrPath::props(&[&format!("{NS}delivers"), &format!("{NS}brand")])
        );
    }

    #[test]
    fn derived_head() {
        let q = parse_hifun("(month∘hasDate, inQuantity, SUM)", NS).unwrap();
        assert_eq!(
            q.groupings[0].path,
            AttrPath::prop(format!("{NS}hasDate")).derived(DerivedFn::Month)
        );
        // derived not at the head is rejected
        assert!(parse_hifun("(hasDate∘month, inQuantity, SUM)", NS).is_err());
    }

    #[test]
    fn pairing_and_multiple_ops() {
        let q = parse_hifun("(takesPlaceAt ⊗ delivers, inQuantity, SUM, AVG)", NS).unwrap();
        assert_eq!(q.groupings.len(), 2);
        assert_eq!(q.ops, vec![AggOp::Sum, AggOp::Avg]);
    }

    #[test]
    fn restrictions_and_having() {
        let q = parse_hifun("(takesPlaceAt=branch1, inQuantity>=2, SUM/>1000)", NS).unwrap();
        assert_eq!(q.groupings[0].restrictions.len(), 1);
        assert_eq!(
            q.groupings[0].restrictions[0].test,
            Test::Cmp(CondOp::Eq, Term::iri(format!("{NS}branch1")))
        );
        let m = q.measuring.as_ref().unwrap();
        assert_eq!(m.restrictions[0].test, Test::Cmp(CondOp::Ge, Term::integer(2)));
        assert_eq!(q.result_restrictions.len(), 1);
        assert_eq!(q.result_restrictions[0].value, Term::integer(1000));
    }

    #[test]
    fn identity_and_empty_grouping() {
        let q = parse_hifun("(ε, ID, COUNT)", NS).unwrap();
        assert!(q.groupings.is_empty());
        assert!(q.measuring.is_none());
    }

    #[test]
    fn display_parse_roundtrip() {
        for text in [
            "(takesPlaceAt, inQuantity, SUM)",
            "(brand∘delivers, inQuantity, SUM)",
            "(ε, ID, COUNT)",
            "(takesPlaceAt ⊗ delivers, inQuantity, MIN)",
        ] {
            let q = parse_hifun(text, NS).unwrap();
            assert_eq!(q.to_string(), text, "roundtrip of {text}");
        }
    }

    #[test]
    fn parsed_query_evaluates() {
        let mut store = rdfa_store::Store::new();
        store
            .load_turtle(&format!(
                r#"@prefix ex: <{NS}> .
                   ex:i1 ex:takesPlaceAt ex:b1 ; ex:inQuantity 200 .
                   ex:i2 ex:takesPlaceAt ex:b2 ; ex:inQuantity 400 .
                "#
            ))
            .unwrap();
        let q = parse_hifun("(takesPlaceAt, inQuantity, SUM)", NS).unwrap();
        let answer = crate::direct::evaluate(&store, &q).unwrap();
        assert_eq!(answer.len(), 2);
    }

    #[test]
    fn root_prints_and_reads_back() {
        let owl = rdfa_model::vocab::owl::NAMED_INDIVIDUAL;
        let text = format!(
            "(ε, ID, COUNT) | {{l1, l2}} ∧ Laptop ∧ <{owl}> ∧ ^ships∈{{shop1}} ∧ \
             usb∈{{2, 2.0}} ∧ label∈{{\"a, b∧c\"@en}} ∧ price∈[100, *] ∧ \
             origin∘manufacturer=USA ∧ month∘releaseDate>=3 ∧ <http://x/price>∈[*, 5]"
        );
        let q = parse_hifun(&text, NS).unwrap();
        assert_eq!(q.notation(NS), text);
        let n = |l: &str| format!("{NS}{l}");
        assert_eq!(q.root.among, Some(vec![Term::iri(n("l1")), Term::iri(n("l2"))]));
        assert_eq!(
            q.root.conditions[..5],
            [
                Restriction::class(Term::iri(n("Laptop"))),
                Restriction::class(Term::iri(owl)),
                Restriction::one_of(vec![Step::Inv(n("ships"))], vec![Term::iri(n("shop1"))]),
                Restriction::one_of(
                    vec![Step::Prop(n("usb"))],
                    vec![Term::integer(2), Term::decimal(2.0)]
                ),
                Restriction::one_of(
                    vec![Step::Prop(n("label"))],
                    vec![Term::Literal(rdfa_model::Literal::lang_string("a, b∧c", "en"))]
                ),
            ]
        );
        assert_eq!(
            q.root.conditions[5],
            Restriction::range(vec![Step::Prop(n("price"))], Some(Term::integer(100)), None)
        );
        // the label form names every IRI by its local name, so two prices
        // and the OWL class do not read back
        let label = q.to_string();
        assert!(label.contains("∧ NamedIndividual ∧"), "{label}");
        assert!(label.ends_with("∧ price∈[*, 5]"), "{label}");
        assert_ne!(parse_hifun(&label, NS).unwrap(), q);
        // an unconstrained root prints nothing, and bad roots are refused
        assert_eq!(parse_hifun("(ε, ID, COUNT)", NS).unwrap().to_string(), "(ε, ID, COUNT)");
        let bad_roots = ["| A ∧ ", "| usb∈2", "| usb∈[1]", "| usb∈{}", "| {a} ∧ {b}", "| a | b"];
        for bad in bad_roots {
            assert!(parse_hifun(&format!("(ε, ID, COUNT) {bad}"), NS).is_err(), "{bad}");
        }
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_hifun("no parens", NS).is_err());
        assert!(parse_hifun("(a, b)", NS).is_err());
        assert!(parse_hifun("(a, b, MEDIAN)", NS).is_err());
    }

    #[test]
    fn full_iri_names() {
        let q = parse_hifun("(<http://x/p>, <http://x/q>, AVG)", NS).unwrap();
        assert_eq!(q.groupings[0].path, AttrPath::prop("http://x/p"));
    }
}
