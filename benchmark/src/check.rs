//! Answer checking. A response is reduced to a fingerprint — row count plus
//! an order-independent hash of the rows — and compared with the fingerprint
//! of the in-process answer on the same data. Analytic answers are also
//! compared with the direct HIFUN evaluator (Proposition 2), numerically,
//! because the two sum in different orders.

use crate::json::Json;
use rdf_analytics::facets::{ClassMarker, PropertyFacet};
use rdf_analytics::model::{Term, Value};
use rdf_analytics::sparql::Solutions;
use rdf_analytics::store::{Store, TermId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub hash: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[derive(Default)]
struct Acc {
    rows: usize,
    hash: u64,
}

impl Acc {
    /// Rows are combined by addition, so their order does not matter.
    fn row(&mut self, text: &str) {
        self.rows += 1;
        self.hash = self.hash.wrapping_add(fnv1a(text.as_bytes()));
    }

    fn done(self) -> Fingerprint {
        Fingerprint {
            rows: self.rows,
            hash: self.hash,
        }
    }
}

/// Fingerprint of a SPARQL-JSON results document.
pub fn sparql_json(body: &str) -> Result<Fingerprint, String> {
    let doc = Json::parse(body)?;
    let bindings = doc
        .get("results")
        .and_then(|r| r.get("bindings"))
        .ok_or("no results.bindings in the response")?;
    let mut acc = Acc::default();
    for binding in bindings.as_arr() {
        let Json::Obj(fields) = binding else {
            return Err("a binding is not an object".to_owned());
        };
        let mut cells: Vec<String> = fields
            .iter()
            .map(|(var, term)| {
                let part = |k| term.get(k).and_then(Json::as_str).unwrap_or("");
                format!(
                    "{var}={}|{}|{}|{}",
                    part("type"),
                    part("value"),
                    part("datatype"),
                    part("xml:lang")
                )
            })
            .collect();
        cells.sort();
        acc.row(&cells.join("\u{1}"));
    }
    Ok(acc.done())
}

/// Fingerprint of an in-process answer, through the same serializer the
/// server streams with.
pub fn solutions(sols: &Solutions) -> Fingerprint {
    sparql_json(&sols.to_json()).expect("the engine's own JSON parses")
}

/// Fingerprint of a `/v1/facets` document: every class marker and every
/// facet value with its count, wherever it sits in the trees.
pub fn facets_json(body: &str) -> Result<Fingerprint, String> {
    fn classes(acc: &mut Acc, markers: &Json) {
        for m in markers.as_arr() {
            let class = m.get("class").and_then(Json::as_str).unwrap_or("");
            acc.row(&format!("c|{class}|{}", m.num("count")));
            if let Some(children) = m.get("children") {
                classes(acc, children);
            }
        }
    }
    fn facets(acc: &mut Acc, list: &Json) {
        for f in list.as_arr() {
            let property = f.get("property").and_then(Json::as_str).unwrap_or("");
            for v in f.get("values").map(Json::as_arr).unwrap_or_default() {
                let value = v.get("value").and_then(Json::as_str).unwrap_or("");
                acc.row(&format!("v|{property}|{value}|{}", v.num("count")));
            }
            if let Some(children) = f.get("children") {
                facets(acc, children);
            }
        }
    }
    let doc = Json::parse(body)?;
    let mut acc = Acc::default();
    acc.row(&format!("e|{}", doc.num("extension")));
    classes(
        &mut acc,
        doc.get("classes")
            .ok_or("no classes in the facets response")?,
    );
    facets(
        &mut acc,
        doc.get("facets")
            .ok_or("no facets in the facets response")?,
    );
    Ok(acc.done())
}

/// The same fingerprint from marker trees computed in-process.
pub fn facets(
    store: &Store,
    ext_len: usize,
    classes: &[ClassMarker],
    facets: &[PropertyFacet],
) -> Fingerprint {
    // how the server names a term in the facets document
    fn name(store: &Store, id: TermId) -> String {
        let term = store.term(id);
        term.as_iri()
            .map_or_else(|| term.display_name(), str::to_owned)
    }
    fn walk_classes(acc: &mut Acc, store: &Store, markers: &[ClassMarker]) {
        for m in markers {
            acc.row(&format!("c|{}|{}", name(store, m.class), m.count));
            walk_classes(acc, store, &m.children);
        }
    }
    fn walk_facets(acc: &mut Acc, store: &Store, list: &[PropertyFacet]) {
        for f in list {
            for (v, n) in &f.values {
                acc.row(&format!(
                    "v|{}|{}|{n}",
                    name(store, f.property),
                    name(store, *v)
                ));
            }
            walk_facets(acc, store, &f.children);
        }
    }
    let mut acc = Acc::default();
    acc.row(&format!("e|{ext_len}"));
    walk_classes(&mut acc, store, classes);
    walk_facets(&mut acc, store, facets);
    acc.done()
}

#[derive(Debug, Clone, PartialEq)]
enum Cell {
    Missing,
    Num(f64),
    Text(String),
}

fn canonical(rows: &[Vec<Option<Term>>]) -> Vec<Vec<Cell>> {
    let mut out: Vec<Vec<Cell>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|c| match c {
                    None => Cell::Missing,
                    Some(t) => {
                        let v = Value::from_term(t);
                        v.as_f64().map_or_else(|| Cell::Text(v.render()), Cell::Num)
                    }
                })
                .collect()
        })
        .collect();
    // group keys are resources or small integers, so a coarse numeric key
    // orders rows the same way on both sides
    let key = |row: &Vec<Cell>| {
        row.iter()
            .map(|c| match c {
                Cell::Missing => "∅".to_owned(),
                Cell::Num(n) => format!("{n:.3}"),
                Cell::Text(t) => t.clone(),
            })
            .collect::<Vec<_>>()
    };
    out.sort_by_key(key);
    out
}

/// Proposition 2: the translated query's answer equals direct evaluation, up
/// to floating-point summation order.
pub fn same_answer(translated: &Solutions, direct: &Solutions) -> bool {
    let (a, b) = (canonical(translated.rows()), canonical(direct.rows()));
    a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|pair| match pair {
                    (Cell::Num(p), Cell::Num(q)) => {
                        (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                    }
                    (p, q) => p == q,
                })
        })
}
