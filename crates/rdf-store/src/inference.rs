//! RDFS closure materialization and its incremental maintenance.
//!
//! Implements the entailment rules the paper's model leverages (§2.1, §5.2.1):
//!
//! - **rdfs5/rdfs11** — transitivity of `rdfs:subPropertyOf` / `rdfs:subClassOf`
//! - **rdfs7** — property inheritance: `(s p o), (p ⊑ q) ⟹ (s q o)`
//! - **rdfs9** — type propagation: `(x type c), (c ⊑ d) ⟹ (x type d)`
//! - **rdfs2/rdfs3** — domain/range typing: `(p domain c), (s p o) ⟹ (s type c)`
//!   (range analogously for resource objects), both lifted through
//!   superproperties.
//!
//! No global fixpoint is needed: once the two subsumption relations are
//! transitively closed, every entailed triple is either one of those closure
//! triples or a *direct consequence* of a single explicit triple
//! (`Schema::consequences`). The inferred layer is therefore
//!
//! ```text
//! (subsumption closure ∪ ⋃ consequences(t) for t explicit) ∖ explicit
//! ```
//!
//! and both entry points are that formula: `compute_closure` evaluates it
//! over the whole explicit layer, `apply_delta` re-evaluates it only for
//! the triples a transaction inserted or removed. They share one `Schema`
//! (the subsumption closures and lifted domains/ranges, read lazily from the
//! explicit layer and memoized), which is what keeps them equal.

use crate::index::{key, IdTriple, TripleIndex};
use crate::interner::TermId;
use crate::layer::Layer;
use crate::store::WellKnown;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

type Ids = Rc<[TermId]>;

/// Which way a subsumption walk goes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Dir {
    /// Towards super-classes / super-properties.
    Up,
    /// Towards sub-classes / sub-properties.
    Down,
}

/// The schema half of the rules, derived on demand from the explicit layer:
/// only the classes and properties a computation actually meets are walked,
/// so a transaction touching nine triples pays for the handful of hierarchy
/// nodes above them, not for the whole ontology.
struct Schema<'a> {
    explicit: &'a Layer,
    wk: WellKnown,
    /// `(relation, direction, node)` → proper ancestors / descendants.
    reach: HashMap<(TermId, Dir, TermId), Ids>,
    /// `(rdfs:domain | rdfs:range, p)` → every class a `p`-triple types its
    /// subject (resp. object) with: the declared domains of `p` and of its
    /// superproperties, plus their superclasses.
    typing: HashMap<(TermId, TermId), Ids>,
    /// `(rdfs:domain | rdfs:range, c)` → every property whose triples type
    /// their subject (resp. object) with `c` — [`Schema::typing`] inverted.
    typed_by: HashMap<(TermId, TermId), Ids>,
}

impl<'a> Schema<'a> {
    fn new(explicit: &'a Layer, wk: WellKnown) -> Self {
        Schema {
            explicit,
            wk,
            reach: HashMap::new(),
            typing: HashMap::new(),
            typed_by: HashMap::new(),
        }
    }

    /// Nodes reachable from `x` over `pred` edges in direction `dir` — the
    /// *proper* transitive closure: `x` itself is excluded even when a cycle
    /// leads back to it.
    fn reach(&mut self, pred: TermId, dir: Dir, x: TermId) -> Ids {
        if let Some(hit) = self.reach.get(&(pred, dir, x)) {
            return Rc::clone(hit);
        }
        let mut seen: HashSet<TermId> = HashSet::new();
        let mut stack = vec![x];
        while let Some(n) = stack.pop() {
            let (at, s, o) = match dir {
                Dir::Up => (2, Some(n), None),
                Dir::Down => (0, None, Some(n)),
            };
            let next = self.explicit.matching(s, Some(pred), o).map(|t| t[at]);
            stack.extend(next.filter(|&m| seen.insert(m)));
        }
        seen.remove(&x);
        let out: Ids = seen.into_iter().collect();
        self.reach.insert((pred, dir, x), Rc::clone(&out));
        out
    }

    fn super_classes(&mut self, c: TermId) -> Ids {
        self.reach(self.wk.rdfs_subclassof, Dir::Up, c)
    }

    fn super_properties(&mut self, p: TermId) -> Ids {
        self.reach(self.wk.rdfs_subpropertyof, Dir::Up, p)
    }

    /// Classes a `p`-triple types its subject (`via` = `rdfs:domain`) or
    /// object (`via` = `rdfs:range`) with.
    fn typing(&mut self, via: TermId, p: TermId) -> Ids {
        if let Some(hit) = self.typing.get(&(via, p)) {
            return Rc::clone(hit);
        }
        let mut classes: BTreeSet<TermId> = BTreeSet::new();
        let supers = self.super_properties(p);
        for &q in std::iter::once(&p).chain(supers.iter()) {
            let declared: Vec<TermId> =
                self.explicit.matching(Some(q), Some(via), None).map(|[_, _, c]| c).collect();
            for c in declared {
                classes.insert(c);
                classes.extend(self.super_classes(c).iter().copied());
            }
        }
        let out: Ids = classes.into_iter().collect();
        self.typing.insert((via, p), Rc::clone(&out));
        out
    }

    /// Properties `p` with `c ∈ typing(via, p)`.
    fn typed_by(&mut self, via: TermId, c: TermId) -> Ids {
        if let Some(hit) = self.typed_by.get(&(via, c)) {
            return Rc::clone(hit);
        }
        let mut props: BTreeSet<TermId> = BTreeSet::new();
        let subs = self.reach(self.wk.rdfs_subclassof, Dir::Down, c);
        for &d in std::iter::once(&c).chain(subs.iter()) {
            let declaring: Vec<TermId> =
                self.explicit.matching(None, Some(via), Some(d)).map(|[q, _, _]| q).collect();
            for q in declaring {
                props.insert(q);
                props.extend(self.reach(self.wk.rdfs_subpropertyof, Dir::Down, q).iter().copied());
            }
        }
        let out: Ids = props.into_iter().collect();
        self.typed_by.insert((via, c), Rc::clone(&out));
        out
    }

    /// False for `rdf:type` and the two subsumption predicates, whose triples
    /// take no part in property inheritance or domain/range typing.
    fn is_data_predicate(&self, p: TermId) -> bool {
        p != self.wk.rdf_type && !self.is_subsumption(p)
    }

    fn is_subsumption(&self, p: TermId) -> bool {
        p == self.wk.rdfs_subclassof || p == self.wk.rdfs_subpropertyof
    }

    /// Every triple one explicit triple entails by itself under the current
    /// schema. May include triples that are explicit too.
    fn consequences(&mut self, [s, p, o]: IdTriple, mut emit: impl FnMut(IdTriple)) {
        let rdf_type = self.wk.rdf_type;
        if p == rdf_type {
            // rdfs9
            for &d in self.super_classes(o).iter() {
                emit([s, rdf_type, d]);
            }
            return;
        }
        if self.is_subsumption(p) {
            return; // these only feed the subsumption closures
        }
        // rdfs7
        for &q in self.super_properties(p).iter() {
            emit([s, q, o]);
        }
        // rdfs2 / rdfs3, each with rdfs9 folded in
        for &c in self.typing(self.wk.rdfs_domain, p).iter() {
            emit([s, rdf_type, c]);
        }
        for &c in self.typing(self.wk.rdfs_range, p).iter() {
            emit([o, rdf_type, c]);
        }
    }

    /// Is `[x, q, y]` a subsumption-closure triple or a consequence of some
    /// explicit triple? Answered from the candidate's side: the few explicit
    /// triples that could support it are looked up by key, so the cost
    /// follows the schema around `q` and `y`, not the degree of `x` or `y`.
    fn entails(&mut self, [x, q, y]: IdTriple) -> bool {
        let rdf_type = self.wk.rdf_type;
        if self.is_subsumption(q) && self.reach(q, Dir::Up, x).contains(&y) {
            return true;
        }
        // rdfs7: an explicit (x p y) with p ⊑ q
        let sub_props = self.reach(self.wk.rdfs_subpropertyof, Dir::Down, q);
        if sub_props.iter().any(|&p| self.is_data_predicate(p) && self.explicit.contains([x, p, y])) {
            return true;
        }
        if q != rdf_type {
            return false;
        }
        // rdfs9: an explicit (x type c) with c ⊑ y
        let sub_classes = self.reach(self.wk.rdfs_subclassof, Dir::Down, y);
        if sub_classes.iter().any(|&c| self.explicit.contains([x, rdf_type, c])) {
            return true;
        }
        // rdfs2 / rdfs3: any explicit edge out of (into) x over a property
        // whose lifted domain (range) contains y
        let by_domain = self.typed_by(self.wk.rdfs_domain, y);
        let by_range = self.typed_by(self.wk.rdfs_range, y);
        let explicit = self.explicit;
        let has_edge = |p: TermId, s, o| explicit.matching(s, Some(p), o).next().is_some();
        by_domain.iter().any(|&p| self.is_data_predicate(p) && has_edge(p, Some(x), None))
            || by_range.iter().any(|&p| self.is_data_predicate(p) && has_edge(p, None, Some(x)))
    }
}

/// Compute the inferred-triples layer (triples entailed but not asserted)
/// from scratch.
pub(crate) fn compute_closure(explicit: &Layer, wk: WellKnown) -> TripleIndex {
    let mut schema = Schema::new(explicit, wk);
    let mut entailed: Vec<IdTriple> = Vec::new();

    // the transitive subsumption triples themselves
    for pred in [wk.rdfs_subclassof, wk.rdfs_subpropertyof] {
        let nodes: BTreeSet<TermId> =
            explicit.matching(None, Some(pred), None).map(|[s, _, _]| s).collect();
        for x in nodes {
            entailed.extend(schema.reach(pred, Dir::Up, x).iter().map(|&y| [x, pred, y]));
        }
    }
    // single pass over the data triples
    for t in explicit.iter() {
        schema.consequences(t, |c| entailed.push(c));
    }
    entailed.sort_unstable_by_key(|&t| key(t));
    entailed.dedup();
    entailed.retain(|&c| !explicit.contains(c));
    TripleIndex::from_sorted_spo(entailed)
}

/// Bring `inferred` up to date after the explicit layer changed by `delta`
/// — `(triple, true)` for a triple that is explicit now and was not before,
/// `(triple, false)` for the reverse — in time proportional to the delta.
/// `explicit` is the layer *after* the change.
///
/// Returns `false` without touching `inferred` when the delta carries a
/// schema triple (`rdfs:subClassOf`, `rdfs:subPropertyOf`, `rdfs:domain`,
/// `rdfs:range`): those change what *other* triples entail, and the caller
/// falls back to [`compute_closure`].
pub(crate) fn apply_delta(
    explicit: &Layer,
    inferred: &mut Layer,
    wk: WellKnown,
    delta: &[(IdTriple, bool)],
) -> bool {
    let schema_preds = [wk.rdfs_subclassof, wk.rdfs_subpropertyof, wk.rdfs_domain, wk.rdfs_range];
    if delta.iter().any(|([_, p, _], _)| schema_preds.contains(p)) {
        return false;
    }
    let mut schema = Schema::new(explicit, wk);
    let mut touched: Vec<IdTriple> = Vec::new();
    for &(t, inserted) in delta {
        touched.clear();
        schema.consequences(t, |c| touched.push(c));
        if inserted {
            // asserted now, so no longer merely inferred; everything it
            // entails is supported by construction
            inferred.remove(t);
            for &c in &touched {
                if !explicit.contains(c) {
                    inferred.insert(c);
                }
            }
        } else {
            // the triple itself and everything it entailed may have lost
            // their last support — or still have another one
            touched.push(t);
            for &c in &touched {
                if explicit.contains(c) {
                    continue;
                }
                if schema.entails(c) {
                    inferred.insert(c);
                } else {
                    inferred.remove(c);
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use rdfa_model::Term;

    const EX: &str = "http://example.org/";

    fn id(store: &mut Store, local: &str) -> TermId {
        store.intern(&Term::iri(format!("{EX}{local}")))
    }

    #[test]
    fn domain_and_range_typing() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:manufacturer rdfs:domain ex:Product ; rdfs:range ex:Company .
                ex:laptop1 ex:manufacturer ex:DELL .
                "#
            ))
            .unwrap();
        let laptop1 = id(&mut store, "laptop1");
        let dell = id(&mut store, "DELL");
        let product = id(&mut store, "Product");
        let company = id(&mut store, "Company");
        let wk = store.well_known();
        assert!(store.contains([laptop1, wk.rdf_type, product]));
        assert!(store.contains([dell, wk.rdf_type, company]));
    }

    #[test]
    fn deep_subclass_chain() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .
                ex:C rdfs:subClassOf ex:D .
                ex:x a ex:A .
                "#
            ))
            .unwrap();
        let x = id(&mut store, "x");
        let wk = store.well_known();
        for cls in ["B", "C", "D"] {
            let c = id(&mut store, cls);
            assert!(store.contains([x, wk.rdf_type, c]), "x should be a {cls}");
        }
        // transitive subclass triple materialized
        let a = id(&mut store, "A");
        let d = id(&mut store, "D");
        assert!(store.contains([a, wk.rdfs_subclassof, d]));
    }

    #[test]
    fn subproperty_with_inherited_domain() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:producer rdfs:domain ex:Artifact .
                ex:manufacturer rdfs:subPropertyOf ex:producer .
                ex:l ex:manufacturer ex:DELL .
                "#
            ))
            .unwrap();
        let l = id(&mut store, "l");
        let artifact = id(&mut store, "Artifact");
        let producer = id(&mut store, "producer");
        let dell = id(&mut store, "DELL");
        let wk = store.well_known();
        assert!(store.contains([l, producer, dell]));
        assert!(store.contains([l, wk.rdf_type, artifact]));
    }

    #[test]
    fn cyclic_subclass_terminates() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:A .
                ex:x a ex:A .
                "#
            ))
            .unwrap();
        let x = id(&mut store, "x");
        let b = id(&mut store, "B");
        let wk = store.well_known();
        assert!(store.contains([x, wk.rdf_type, b]));
    }

    #[test]
    fn no_spurious_inference_without_schema() {
        let mut store = Store::new();
        store
            .load_turtle(&format!("@prefix ex: <{EX}> . ex:a ex:p ex:b ."))
            .unwrap();
        assert_eq!(store.len_entailed(), store.len());
    }

    /// The incremental path on its own terms: a triple that is both asserted
    /// and entailed moves between the layers instead of vanishing, and an
    /// entailed triple survives the loss of one of two supports.
    #[test]
    fn delta_moves_triples_between_layers() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:Laptop rdfs:subClassOf ex:Product .
                ex:maker rdfs:domain ex:Product .
                ex:l a ex:Laptop ; ex:maker ex:DELL .
                "#
            ))
            .unwrap();
        let l = id(&mut store, "l");
        let laptop = id(&mut store, "Laptop");
        let product = id(&mut store, "Product");
        let maker = id(&mut store, "maker");
        let dell = id(&mut store, "DELL");
        let wk = store.well_known();
        let typed = [l, wk.rdf_type, product];
        let entailed_only = |s: &Store| s.contains(typed) && s.matching_explicit(Some(l), Some(wk.rdf_type), Some(product)).next().is_none();
        assert!(entailed_only(&store));
        // assert it as well: explicit now, not double-counted
        let before = store.len_entailed();
        store.insert_ids(typed);
        store.refresh_inference();
        assert_eq!(store.len_entailed(), before);
        assert!(!entailed_only(&store) && store.contains(typed));
        // retract the assertion: still entailed, twice over
        store.remove_ids(typed);
        store.refresh_inference();
        assert!(entailed_only(&store));
        // drop one support (the type edge): the domain still carries it
        store.remove_ids([l, wk.rdf_type, laptop]);
        store.refresh_inference();
        assert!(entailed_only(&store));
        // drop the other: gone
        store.remove_ids([l, maker, dell]);
        store.refresh_inference();
        assert!(!store.contains(typed));
        assert_eq!(store.closure_stats().incremental, 4);
        assert_eq!(store.closure_stats().full, 0);
    }
}
