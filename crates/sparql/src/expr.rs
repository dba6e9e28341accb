//! Expression evaluation with SPARQL error semantics: an evaluation error
//! yields `None`, which makes the enclosing `FILTER` reject the row.
//!
//! Expressions have no pattern engine of their own: `EXISTS { … }` is
//! answered by an [`ExistsEval`] supplied by whoever evaluates the
//! expression (the physical plan runs a compiled sub-plan seeded with the
//! row).

use crate::ast::{ArithOp, CompareOp, Expr, GroupPattern};
use crate::plan::rows::{Bound, Frame, Row};
use crate::LimitGuard;
use rdfa_model::{Term, Value};
use rdfa_store::Store;
use std::cmp::Ordering;

/// Answers `EXISTS { group }` for one row laid out in `frame`: `Some(true)`
/// when the pattern has a solution compatible with the row, `None` when
/// the caller cannot evaluate patterns (an expression error).
pub trait ExistsEval {
    fn exists(&self, group: &GroupPattern, row: &Row, frame: &Frame) -> Option<bool>;
}

/// For contexts without a pattern engine: every `EXISTS` is an error.
pub struct NoExists;

impl ExistsEval for NoExists {
    fn exists(&self, _: &GroupPattern, _: &Row, _: &Frame) -> Option<bool> {
        None
    }
}

/// Evaluate a (non-aggregate, `EXISTS`-free) expression against one row,
/// unlimited.
pub fn eval_expr(expr: &Expr, row: &Row, frame: &Frame, store: &Store) -> Option<Value> {
    eval_expr_limited(expr, row, frame, store, &LimitGuard::unlimited(), &NoExists)
}

/// Guarded variant: `EXISTS` sub-evaluations draw from the same guard as
/// the outer query. Once the guard trips, evaluation returns `None` (an
/// expression error); the caller surfaces the structured error at its next
/// checkpoint.
#[doc(hidden)]
pub fn eval_expr_limited(
    expr: &Expr,
    row: &Row,
    frame: &Frame,
    store: &Store,
    guard: &LimitGuard,
    exists: &dyn ExistsEval,
) -> Option<Value> {
    if guard.soft_tripped() {
        return None;
    }
    match expr {
        Expr::Var(v) => {
            let slot = frame.index(v)?;
            let bound = row.get(slot)?.as_ref()?;
            Some(bound_value(bound, store))
        }
        Expr::Const(t) => Some(Value::from_term(t)),
        Expr::Or(a, b) => {
            // SPARQL ternary logic: true || error = true
            let va = eval_expr_limited(a, row, frame, store, guard, exists).and_then(|v| v.effective_boolean());
            let vb = eval_expr_limited(b, row, frame, store, guard, exists).and_then(|v| v.effective_boolean());
            match (va, vb) {
                (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                (Some(false), Some(false)) => Some(Value::Bool(false)),
                _ => None,
            }
        }
        Expr::And(a, b) => {
            let va = eval_expr_limited(a, row, frame, store, guard, exists).and_then(|v| v.effective_boolean());
            let vb = eval_expr_limited(b, row, frame, store, guard, exists).and_then(|v| v.effective_boolean());
            match (va, vb) {
                (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                (Some(true), Some(true)) => Some(Value::Bool(true)),
                _ => None,
            }
        }
        Expr::Not(e) => {
            let v = eval_expr_limited(e, row, frame, store, guard, exists)?.effective_boolean()?;
            Some(Value::Bool(!v))
        }
        Expr::Compare(a, op, b) => {
            let va = eval_expr_limited(a, row, frame, store, guard, exists)?;
            let vb = eval_expr_limited(b, row, frame, store, guard, exists)?;
            compare(&va, *op, &vb).map(Value::Bool)
        }
        Expr::Arith(a, op, b) => {
            let va = eval_expr_limited(a, row, frame, store, guard, exists)?;
            let vb = eval_expr_limited(b, row, frame, store, guard, exists)?;
            match op {
                ArithOp::Add => va.add(&vb),
                ArithOp::Sub => va.sub(&vb),
                ArithOp::Mul => va.mul(&vb),
                ArithOp::Div => va.div(&vb),
            }
        }
        Expr::Neg(e) => {
            let v = eval_expr_limited(e, row, frame, store, guard, exists)?;
            Value::Int(0).sub(&v)
        }
        Expr::In(e, list, negated) => {
            let v = eval_expr_limited(e, row, frame, store, guard, exists)?;
            let mut found = false;
            for item in list {
                if let Some(vi) = eval_expr_limited(item, row, frame, store, guard, exists) {
                    if v.value_eq(&vi) {
                        found = true;
                        break;
                    }
                }
            }
            Some(Value::Bool(found != *negated))
        }
        Expr::Call(name, args) => eval_call(name, args, row, frame, store, guard, exists),
        Expr::Exists(group, negated) => {
            let hit = exists.exists(group, row, frame)?;
            Some(Value::Bool(hit != *negated))
        }
        // aggregates are handled by the grouping machinery; seeing
        // one here means it appeared in a non-aggregate context
        Expr::Aggregate(..) => None,
    }
}

/// The typed value of a binding slot.
pub fn bound_value(bound: &Bound, store: &Store) -> Value {
    match bound {
        Bound::Id(id) => Value::from_term(store.term(*id)),
        Bound::Term(t) => Value::from_term(t),
    }
}

/// The term of a binding slot (borrowing from the store when interned).
pub fn bound_term<'a>(bound: &'a Bound, store: &'a Store) -> &'a Term {
    match bound {
        Bound::Id(id) => store.term(*id),
        Bound::Term(t) => t,
    }
}

fn compare(a: &Value, op: CompareOp, b: &Value) -> Option<bool> {
    match op {
        CompareOp::Eq => Some(a.value_eq(b)),
        CompareOp::Ne => Some(!a.value_eq(b)),
        _ => {
            let ord = a.compare(b)?;
            Some(match op {
                CompareOp::Lt => ord == Ordering::Less,
                CompareOp::Le => ord != Ordering::Greater,
                CompareOp::Gt => ord == Ordering::Greater,
                CompareOp::Ge => ord != Ordering::Less,
                CompareOp::Eq | CompareOp::Ne => unreachable!(),
            })
        }
    }
}

fn eval_call(
    name: &str,
    args: &[Expr],
    row: &Row,
    frame: &Frame,
    store: &Store,
    guard: &LimitGuard,
    exists: &dyn ExistsEval,
) -> Option<Value> {
    // BOUND, IF and COALESCE need lazy/unbound-tolerant handling
    match name {
        "BOUND" => {
            if let Some(Expr::Var(v)) = args.first() {
                let slot = frame.index(v)?;
                return Some(Value::Bool(row.get(slot)?.is_some()));
            }
            return None;
        }
        "IF" => {
            let cond = eval_expr_limited(args.first()?, row, frame, store, guard, exists)?.effective_boolean()?;
            let branch = if cond { args.get(1)? } else { args.get(2)? };
            return eval_expr_limited(branch, row, frame, store, guard, exists);
        }
        "COALESCE" => {
            for a in args {
                if let Some(v) = eval_expr_limited(a, row, frame, store, guard, exists) {
                    return Some(v);
                }
            }
            return None;
        }
        _ => {}
    }

    let v: Vec<Value> = args
        .iter()
        .map(|a| eval_expr_limited(a, row, frame, store, guard, exists))
        .collect::<Option<Vec<_>>>()?;

    match name {
        // --- date component extraction (derived attributes, §4.2.4) ---
        "YEAR" => date_part(&v, |d| d.year as i64, |dt| dt.date.year as i64),
        "MONTH" => date_part(&v, |d| d.month as i64, |dt| dt.date.month as i64),
        "DAY" => date_part(&v, |d| d.day as i64, |dt| dt.date.day as i64),
        "HOURS" => match v.first()? {
            Value::DateTime(dt) => Some(Value::Int(dt.hour as i64)),
            _ => None,
        },
        "MINUTES" => match v.first()? {
            Value::DateTime(dt) => Some(Value::Int(dt.minute as i64)),
            _ => None,
        },
        "SECONDS" => match v.first()? {
            Value::DateTime(dt) => Some(Value::Int((dt.millisecond / 1000) as i64)),
            _ => None,
        },
        // --- strings ---
        "STR" => Some(Value::Str(v.first()?.render(), None)),
        "STRLEN" => match v.first()? {
            Value::Str(s, _) => Some(Value::Int(s.chars().count() as i64)),
            _ => None,
        },
        "UCASE" => str1(&v, |s| s.to_uppercase()),
        "LCASE" => str1(&v, |s| s.to_lowercase()),
        "CONTAINS" => str2(&v, |a, b| a.contains(b)),
        "STRSTARTS" => str2(&v, |a, b| a.starts_with(b)),
        "STRENDS" => str2(&v, |a, b| a.ends_with(b)),
        "STRBEFORE" => match (v.first()?, v.get(1)?) {
            (Value::Str(a, _), Value::Str(b, _)) => Some(Value::Str(
                a.find(b.as_str()).map(|i| a[..i].to_owned()).unwrap_or_default(),
                None,
            )),
            _ => None,
        },
        "STRAFTER" => match (v.first()?, v.get(1)?) {
            (Value::Str(a, _), Value::Str(b, _)) => Some(Value::Str(
                a.find(b.as_str()).map(|i| a[i + b.len()..].to_owned()).unwrap_or_default(),
                None,
            )),
            _ => None,
        },
        // REPLACE with a literal (non-regex) pattern — consistent with the
        // documented REGEX subset
        "REPLACE" => match (v.first()?, v.get(1)?, v.get(2)?) {
            (Value::Str(s, _), Value::Str(from, _), Value::Str(to, _)) => {
                Some(Value::Str(s.replace(from.as_str(), to), None))
            }
            _ => None,
        },
        "ENCODE_FOR_URI" => match v.first()? {
            Value::Str(s, _) => {
                let mut out = String::with_capacity(s.len());
                for c in s.chars() {
                    if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '~') {
                        out.push(c);
                    } else {
                        let mut buf = [0u8; 4];
                        for b in c.encode_utf8(&mut buf).bytes() {
                            out.push_str(&format!("%{b:02X}"));
                        }
                    }
                }
                Some(Value::Str(out, None))
            }
            _ => None,
        },
        "CONCAT" => {
            let mut out = String::new();
            for x in &v {
                match x {
                    Value::Str(s, _) => out.push_str(s),
                    other => out.push_str(&other.render()),
                }
            }
            Some(Value::Str(out, None))
        }
        "SUBSTR" => {
            let s = match v.first()? {
                Value::Str(s, _) => s.clone(),
                _ => return None,
            };
            let start = v.get(1)?.as_f64()? as usize;
            let chars: Vec<char> = s.chars().collect();
            let from = start.saturating_sub(1).min(chars.len());
            let to = match v.get(2) {
                Some(len) => (from + len.as_f64()? as usize).min(chars.len()),
                None => chars.len(),
            };
            Some(Value::Str(chars[from..to].iter().collect(), None))
        }
        // REGEX with a pragmatic subset: '^'/'$' anchors around a literal
        // pattern; everything else is substring search (documented in DESIGN.md).
        "REGEX" => {
            let s = match v.first()? {
                Value::Str(s, _) => s.clone(),
                other => other.render(),
            };
            let pat = match v.get(1)? {
                Value::Str(p, _) => p.clone(),
                _ => return None,
            };
            let ci = matches!(v.get(2), Some(Value::Str(f, _)) if f.contains('i'));
            let (s, pat) = if ci { (s.to_lowercase(), pat.to_lowercase()) } else { (s, pat) };
            let anchored_start = pat.starts_with('^');
            let anchored_end = pat.ends_with('$');
            let core = pat.trim_start_matches('^').trim_end_matches('$');
            let hit = match (anchored_start, anchored_end) {
                (true, true) => s == core,
                (true, false) => s.starts_with(core),
                (false, true) => s.ends_with(core),
                (false, false) => s.contains(core),
            };
            Some(Value::Bool(hit))
        }
        // --- numerics ---
        "ABS" => num1(&v, f64::abs),
        "ROUND" => num1(&v, f64::round),
        "CEIL" => num1(&v, f64::ceil),
        "FLOOR" => num1(&v, f64::floor),
        // --- type tests ---
        "ISIRI" | "ISURI" => Some(Value::Bool(matches!(v.first()?, Value::Iri(_)))),
        "ISBLANK" => Some(Value::Bool(matches!(v.first()?, Value::Blank(_)))),
        "ISLITERAL" => Some(Value::Bool(!matches!(
            v.first()?,
            Value::Iri(_) | Value::Blank(_)
        ))),
        "ISNUMERIC" => Some(Value::Bool(v.first()?.is_numeric())),
        "LANG" => match v.first()? {
            Value::Str(_, Some(lang)) => Some(Value::Str(lang.clone(), None)),
            Value::Str(_, None) => Some(Value::Str(String::new(), None)),
            _ => None,
        },
        "DATATYPE" => {
            let t = v.first()?.to_term();
            match t {
                Term::Literal(l) => Some(Value::Iri(l.datatype)),
                _ => None,
            }
        }
        _ => None,
    }
}

fn date_part(
    v: &[Value],
    from_date: impl Fn(&rdfa_model::Date) -> i64,
    from_dt: impl Fn(&rdfa_model::DateTime) -> i64,
) -> Option<Value> {
    match v.first()? {
        Value::Date(d) => Some(Value::Int(from_date(d))),
        Value::DateTime(dt) => Some(Value::Int(from_dt(dt))),
        _ => None,
    }
}

fn str1(v: &[Value], f: impl Fn(&str) -> String) -> Option<Value> {
    match v.first()? {
        Value::Str(s, _) => Some(Value::Str(f(s), None)),
        _ => None,
    }
}

fn str2(v: &[Value], f: impl Fn(&str, &str) -> bool) -> Option<Value> {
    match (v.first()?, v.get(1)?) {
        (Value::Str(a, _), Value::Str(b, _)) => Some(Value::Bool(f(a, b))),
        _ => None,
    }
}

fn num1(v: &[Value], f: impl Fn(f64) -> f64) -> Option<Value> {
    match v.first()? {
        Value::Int(i) => Some(Value::Int(f(*i as f64) as i64)),
        Value::Float(x) => Some(Value::Float(f(*x))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::ast::{PatternElement, QueryForm};

    fn expr(text: &str) -> Expr {
        // parse via a FILTER in a dummy query
        let q = parse_query(&format!("SELECT ?x WHERE {{ ?x ?p ?o . FILTER({text}) }}")).unwrap();
        match q.form {
            QueryForm::Select(s) => s
                .where_
                .elements
                .into_iter()
                .find_map(|e| match e {
                    PatternElement::Filter(f) => Some(f),
                    _ => None,
                })
                .unwrap(),
            _ => unreachable!(),
        }
    }

    fn eval_const(text: &str) -> Option<Value> {
        let store = Store::new();
        let frame = Frame::new(vec!["x".into()]);
        let row: Row = vec![None];
        eval_expr(&expr(text), &row, &frame, &store)
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval_const("1 + 2 * 3"), Some(Value::Int(7)));
        assert_eq!(eval_const("(1 + 2) * 3"), Some(Value::Int(9)));
        assert_eq!(eval_const("7 / 2 > 3"), Some(Value::Bool(true)));
        assert_eq!(eval_const("-(3) < 0"), Some(Value::Bool(true)));
    }

    #[test]
    fn ternary_logic_or_with_error() {
        // ?x is unbound → error; true || error = true, error || false = error
        assert_eq!(eval_const("1 = 1 || ?x > 2"), Some(Value::Bool(true)));
        assert_eq!(eval_const("?x > 2 || 1 = 2"), None);
        assert_eq!(eval_const("?x > 2 && 1 = 2"), Some(Value::Bool(false)));
    }

    #[test]
    fn date_functions() {
        assert_eq!(
            eval_const(r#"YEAR("2021-06-10"^^<http://www.w3.org/2001/XMLSchema#date>)"#),
            Some(Value::Int(2021))
        );
        assert_eq!(
            eval_const(r#"MONTH("2021-06-10T12:00:00"^^<http://www.w3.org/2001/XMLSchema#dateTime>)"#),
            Some(Value::Int(6))
        );
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval_const(r#"STRLEN("hello")"#), Some(Value::Int(5)));
        assert_eq!(
            eval_const(r#"UCASE("abc")"#),
            Some(Value::Str("ABC".into(), None))
        );
        assert_eq!(eval_const(r#"CONTAINS("laptop", "top")"#), Some(Value::Bool(true)));
        assert_eq!(
            eval_const(r#"SUBSTR("abcdef", 2, 3)"#),
            Some(Value::Str("bcd".into(), None))
        );
        assert_eq!(
            eval_const(r#"CONCAT("a", "b", STR(3))"#),
            Some(Value::Str("ab3".into(), None))
        );
    }

    #[test]
    fn regex_subset() {
        assert_eq!(eval_const(r#"REGEX("DELL-15", "DELL")"#), Some(Value::Bool(true)));
        assert_eq!(eval_const(r#"REGEX("DELL-15", "^DELL")"#), Some(Value::Bool(true)));
        assert_eq!(eval_const(r#"REGEX("DELL-15", "^15")"#), Some(Value::Bool(false)));
        assert_eq!(eval_const(r#"REGEX("DELL", "^dell$", "i")"#), Some(Value::Bool(true)));
    }

    #[test]
    fn bound_if_coalesce() {
        assert_eq!(eval_const("BOUND(?x)"), Some(Value::Bool(false)));
        assert_eq!(eval_const("IF(1 < 2, 10, 20)"), Some(Value::Int(10)));
        assert_eq!(eval_const("COALESCE(?x, 5)"), Some(Value::Int(5)));
    }

    #[test]
    fn in_and_not_in() {
        assert_eq!(eval_const("2 IN (1, 2, 3)"), Some(Value::Bool(true)));
        assert_eq!(eval_const("5 NOT IN (1, 2, 3)"), Some(Value::Bool(true)));
    }

    #[test]
    fn type_tests() {
        assert_eq!(eval_const("ISNUMERIC(3)"), Some(Value::Bool(true)));
        assert_eq!(eval_const(r#"ISLITERAL("x")"#), Some(Value::Bool(true)));
        assert_eq!(eval_const("ISIRI(<http://e/a>)"), Some(Value::Bool(true)));
    }

    #[test]
    fn numeric_rounding() {
        assert_eq!(eval_const("ABS(-3)"), Some(Value::Int(3)));
        assert_eq!(eval_const("CEIL(2.1)"), Some(Value::Float(3.0)));
        assert_eq!(eval_const("FLOOR(2.9)"), Some(Value::Float(2.0)));
        assert_eq!(eval_const("ROUND(2.5)"), Some(Value::Float(3.0)));
    }
}
