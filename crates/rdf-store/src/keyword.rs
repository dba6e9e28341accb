//! Keyword search over the store — the second starting point of the
//! interaction (§5.4.1): a session may begin from "a set *Results* obtained
//! from an external access method, such as a keyword search query".
//!
//! A simple inverted index over literal lexical forms and IRI local names,
//! scored by TF–IDF and aggregated per *subject* resource, so the ranked
//! hits can seed `FacetedSession::start_from` directly.

use crate::extset::ExtSet;
use crate::interner::TermId;
use crate::store::Store;
use rdfa_model::Term;
use std::collections::HashMap;

/// One ranked hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    pub resource: TermId,
    pub score: f64,
}

/// An inverted index over a store's text: tokens → (subject, term frequency).
#[derive(Debug, Default)]
pub struct KeywordIndex {
    postings: HashMap<String, HashMap<TermId, usize>>,
    n_docs: usize,
}

/// Lowercase alphanumeric tokenization; camelCase and snake_case IRIs split
/// into their words (`releaseDate` → `release`, `date`).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut prev_lower = false;
    for c in text.chars() {
        if c.is_alphanumeric() {
            if c.is_uppercase() && prev_lower && !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            prev_lower = c.is_lowercase() || c.is_numeric();
            current.extend(c.to_lowercase());
        } else {
            prev_lower = false;
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

impl KeywordIndex {
    /// Build the index: each subject resource is a "document" whose text is
    /// its own local name plus the lexical forms / local names of its
    /// property values.
    pub fn build(store: &Store) -> Self {
        let mut index = KeywordIndex::default();
        let mut docs: HashMap<TermId, Vec<String>> = HashMap::new();
        for [s, _, o] in store.iter_explicit() {
            let entry = docs.entry(s).or_default();
            match store.term(o) {
                Term::Literal(l) => entry.extend(tokenize(&l.lexical)),
                Term::Iri(iri) => entry.extend(tokenize(rdfa_model::term::local_name(iri))),
                Term::Blank(_) => {}
            }
        }
        // index the subjects' own names too
        let subjects: Vec<TermId> = docs.keys().copied().collect();
        for s in subjects {
            if let Term::Iri(iri) = store.term(s) {
                let toks = tokenize(rdfa_model::term::local_name(iri));
                docs.get_mut(&s).expect("doc exists").extend(toks);
            }
        }
        index.n_docs = docs.len();
        for (s, tokens) in docs {
            for t in tokens {
                *index.postings.entry(t).or_default().entry(s).or_insert(0) += 1;
            }
        }
        index
    }

    /// Number of indexed resources.
    pub fn len(&self) -> usize {
        self.n_docs
    }

    /// True when nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.n_docs == 0
    }

    /// TF–IDF ranked search. Multi-word queries score the union of their
    /// terms (resources matching more query words rank higher).
    pub fn search(&self, query: &str) -> Vec<Hit> {
        let mut scores: HashMap<TermId, f64> = HashMap::new();
        for token in tokenize(query) {
            if let Some(postings) = self.postings.get(&token) {
                let idf = ((self.n_docs as f64 + 1.0) / (postings.len() as f64 + 1.0)).ln() + 1.0;
                for (&doc, &tf) in postings {
                    *scores.entry(doc).or_insert(0.0) += (1.0 + (tf as f64).ln()) * idf;
                }
            }
        }
        let mut hits: Vec<Hit> = scores
            .into_iter()
            .map(|(resource, score)| Hit { resource, score })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.resource.cmp(&b.resource))
        });
        hits
    }

    /// The top-`k` resources as a set, ready for
    /// `FacetedSession::start_from`.
    pub fn search_set(&self, query: &str, k: usize) -> ExtSet {
        self.search(query).into_iter().take(k).map(|h| h.resource).collect()
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
               ex:laptop1 a ex:Laptop ; ex:label "DELL gaming laptop" ; ex:manufacturer ex:DELL .
               ex:laptop2 a ex:Laptop ; ex:label "Lenovo office laptop" .
               ex:phone1 a ex:Phone ; ex:label "DELL phone" .
               ex:chargingCable a ex:Accessory .
            "#
        ))
        .unwrap();
        s
    }

    #[test]
    fn tokenizer_splits_camel_and_snake() {
        assert_eq!(tokenize("releaseDate"), vec!["release", "date"]);
        assert_eq!(tokenize("USB_ports-2"), vec!["usb", "ports", "2"]);
        assert_eq!(tokenize("  hello,  World! "), vec!["hello", "world"]);
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn search_ranks_by_relevance() {
        let s = store();
        let idx = KeywordIndex::build(&s);
        let hits = idx.search("DELL laptop");
        assert!(!hits.is_empty());
        // laptop1 mentions both words; it must outrank the phone and laptop2
        let top = hits[0].resource;
        assert_eq!(s.term(top).display_name(), "laptop1");
    }

    #[test]
    fn search_set_seeds_faceted_session() {
        let s = store();
        let idx = KeywordIndex::build(&s);
        let set = idx.search_set("laptop", 10);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn resource_names_are_searchable() {
        let s = store();
        let idx = KeywordIndex::build(&s);
        let hits = idx.search("charging cable");
        assert_eq!(hits.len(), 1);
        assert_eq!(s.term(hits[0].resource).display_name(), "chargingCable");
    }

    #[test]
    fn no_match_is_empty_not_error() {
        let s = store();
        let idx = KeywordIndex::build(&s);
        assert!(idx.search("xyzzy").is_empty());
        assert!(idx.search_set("", 5).is_empty());
    }

    #[test]
    fn rare_terms_score_higher_than_common() {
        let s = store();
        let idx = KeywordIndex::build(&s);
        // "office" is rarer than "laptop"; a search for both ranks laptop2 first
        let hits = idx.search("office laptop");
        assert_eq!(s.term(hits[0].resource).display_name(), "laptop2");
    }
}
