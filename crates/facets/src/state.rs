//! Interaction states: extension + intention (§5.3.2, §5.5).

use rdfa_model::{Term, Value};
use rdfa_store::{ExtSet, Store, TermId};

/// One step of a property path: a property, possibly traversed inversely
/// (`p⁻¹` of §5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathStep {
    pub prop: TermId,
    pub inverse: bool,
}

impl PathStep {
    /// A forward step.
    pub fn fwd(prop: TermId) -> Self {
        PathStep { prop, inverse: false }
    }

    /// An inverse step.
    pub fn inv(prop: TermId) -> Self {
        PathStep { prop, inverse: true }
    }
}

/// The constraint at the end of a condition's path.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Terminal value equals this term.
    Value(TermId),
    /// Terminal value is one of these terms.
    OneOf(ExtSet),
    /// Terminal value lies in a (typed) range; either bound optional.
    Range { min: Option<Value>, max: Option<Value> },
}

/// One accumulated filter condition: a path from the focus resources plus a
/// terminal constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    pub path: Vec<PathStep>,
    pub constraint: Constraint,
}

/// The intention of a state: the query whose answer is the extension (§5.5).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Intent {
    /// An explicit seed set when the session started from external results
    /// (keyword search, §5.4.1); `None` for from-scratch sessions.
    pub seed: Option<ExtSet>,
    /// Clicked classes, in click order; the extension lies in all of them.
    pub classes: Vec<TermId>,
    /// Conjunction of conditions, in click order.
    pub conditions: Vec<Condition>,
}

impl Intent {
    /// Express the intention as a SPARQL SELECT query (Table 5.1's
    /// SPARQL-expression of the model's notations).
    pub fn to_sparql(&self, store: &Store) -> String {
        let mut patterns: Vec<String> = Vec::new();
        let mut filters: Vec<String> = Vec::new();
        let mut var_counter = 0usize;
        let mut fresh = || {
            var_counter += 1;
            format!("?v{var_counter}")
        };
        let values_clause = self.seed.as_ref().map(|seed| {
            let list = seed
                .iter()
                .map(|id| store.term(id).to_string())
                .collect::<Vec<_>>()
                .join(" ");
            format!("VALUES ?x {{ {list} }}")
        });
        for &c in &self.classes {
            patterns.push(format!(
                "?x <{}> {} .",
                rdfa_model::vocab::rdf::TYPE,
                store.term(c)
            ));
        }
        for cond in &self.conditions {
            let mut current = "?x".to_owned();
            let k = cond.path.len();
            for (i, step) in cond.path.iter().enumerate() {
                let is_last = i + 1 == k;
                let prop = store.term(step.prop);
                // the terminal node: a constant for Value constraints, a
                // variable otherwise
                let next = if is_last {
                    match &cond.constraint {
                        Constraint::Value(v) => store.term(*v).to_string(),
                        _ => fresh(),
                    }
                } else {
                    fresh()
                };
                if step.inverse {
                    patterns.push(format!("{next} {prop} {current} ."));
                } else {
                    patterns.push(format!("{current} {prop} {next} ."));
                }
                if is_last {
                    match &cond.constraint {
                        Constraint::Value(_) => {}
                        Constraint::OneOf(set) => {
                            let list = set
                                .iter()
                                .map(|v| store.term(v).to_string())
                                .collect::<Vec<_>>()
                                .join(", ");
                            filters.push(format!("{next} IN ({list})"));
                        }
                        Constraint::Range { min, max } => {
                            if let Some(m) = min {
                                filters.push(format!("{next} >= {}", m.to_term()));
                            }
                            if let Some(m) = max {
                                filters.push(format!("{next} <= {}", m.to_term()));
                            }
                        }
                    }
                }
                current = next;
            }
        }
        if patterns.is_empty() && values_clause.is_none() {
            patterns.push("?x ?p ?o .".to_owned());
        }
        let mut q = String::from("SELECT DISTINCT ?x\nWHERE {\n");
        if let Some(v) = &values_clause {
            q.push_str("  ");
            q.push_str(v);
            q.push('\n');
        }
        for p in &patterns {
            q.push_str("  ");
            q.push_str(p);
            q.push('\n');
        }
        if !filters.is_empty() {
            q.push_str(&format!("  FILTER({})\n", filters.join(" && ")));
        }
        q.push_str("}\n");
        q
    }

    /// Human-readable description of the state (used in session breadcrumbs).
    pub fn describe(&self, store: &Store) -> String {
        let mut parts = Vec::new();
        if let Some(seed) = &self.seed {
            parts.push(format!("seed of {} results", seed.len()));
        }
        for &c in &self.classes {
            parts.push(format!("type={}", store.term(c).display_name()));
        }
        for cond in &self.conditions {
            let path = cond
                .path
                .iter()
                .map(|s| {
                    let name = store.term(s.prop).display_name();
                    if s.inverse {
                        format!("^{name}")
                    } else {
                        name
                    }
                })
                .collect::<Vec<_>>()
                .join("/");
            let c = match &cond.constraint {
                Constraint::Value(v) => store.term(*v).display_name(),
                Constraint::OneOf(set) => format!("one of {} values", set.len()),
                Constraint::Range { min, max } => format!(
                    "[{}..{}]",
                    min.as_ref().map(|v| v.render()).unwrap_or_default(),
                    max.as_ref().map(|v| v.render()).unwrap_or_default()
                ),
            };
            parts.push(format!("{path}={c}"));
        }
        if parts.is_empty() {
            "all resources".to_owned()
        } else {
            parts.join(", ")
        }
    }
}

/// A state of the interaction: extension (focus resources) + intention.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    pub ext: ExtSet,
    pub intent: Intent,
}

impl State {
    /// The artificial initial state `s0`: every named individual, or every
    /// subject when no `owl:NamedIndividual` typing exists (§5.3.2).
    pub fn initial(store: &Store) -> Self {
        let named = store
            .lookup_iri(rdfa_model::vocab::owl::NAMED_INDIVIDUAL)
            .map(|ni| store.instances_set(ni))
            .unwrap_or_default();
        let ext = if named.is_empty() {
            // SPO iteration is ascending by subject, so adjacent dedup suffices
            ExtSet::from_sorted_iter(store.iter_explicit().map(|[s, _, _]| s))
        } else {
            named
        };
        State { ext, intent: Intent::default() }
    }

    /// Objects of the right frame, as terms.
    pub fn resources<'a>(&'a self, store: &'a Store) -> impl Iterator<Item = &'a Term> + 'a {
        self.ext.iter().map(|id| store.term(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX: &str = "http://e/";

    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:usb 2 .
               ex:l2 a ex:Laptop ; ex:manufacturer ex:Lenovo .
               ex:DELL ex:origin ex:USA .
            "#
        ))
        .unwrap();
        s
    }

    #[test]
    fn initial_state_covers_all_subjects() {
        let s = store();
        let st = State::initial(&s);
        assert!(st.ext.len() >= 3);
        assert_eq!(st.intent, Intent::default());
    }

    #[test]
    fn intent_to_sparql_renders_conditions() {
        let s = store();
        let laptop = s.lookup_iri(&format!("{EX}Laptop")).unwrap();
        let man = s.lookup_iri(&format!("{EX}manufacturer")).unwrap();
        let origin = s.lookup_iri(&format!("{EX}origin")).unwrap();
        let usa = s.lookup_iri(&format!("{EX}USA")).unwrap();
        let intent = Intent {
            seed: None,
            classes: vec![laptop],
            conditions: vec![Condition {
                path: vec![PathStep::fwd(man), PathStep::fwd(origin)],
                constraint: Constraint::Value(usa),
            }],
        };
        let q = intent.to_sparql(&s);
        assert!(q.contains("?x <http://e/manufacturer> ?v1 ."), "{q}");
        assert!(q.contains("?v1 <http://e/origin> <http://e/USA> ."), "{q}");
        // and the query actually evaluates to the same extension
        let results = rdfa_sparql::Engine::builder(&s).build().run(&q).unwrap();
        assert_eq!(results.solutions().unwrap().len(), 1);
    }

    #[test]
    fn intent_range_filter_renders() {
        let s = store();
        let usb = s.lookup_iri(&format!("{EX}usb")).unwrap();
        let intent = Intent {
            seed: None,
            classes: Vec::new(),
            conditions: vec![Condition {
                path: vec![PathStep::fwd(usb)],
                constraint: Constraint::Range {
                    min: Some(Value::Int(2)),
                    max: Some(Value::Int(4)),
                },
            }],
        };
        let q = intent.to_sparql(&s);
        assert!(q.contains(">="), "{q}");
        assert!(q.contains("<="), "{q}");
    }

    #[test]
    fn describe_is_readable() {
        let s = store();
        let man = s.lookup_iri(&format!("{EX}manufacturer")).unwrap();
        let dell = s.lookup_iri(&format!("{EX}DELL")).unwrap();
        let intent = Intent {
            seed: None,
            classes: Vec::new(),
            conditions: vec![Condition {
                path: vec![PathStep::fwd(man)],
                constraint: Constraint::Value(dell),
            }],
        };
        assert_eq!(intent.describe(&s), "manufacturer=DELL");
    }
}
