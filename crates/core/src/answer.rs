//! The Answer Frame (AF): tabular analytic answers and their reload as a new
//! RDF dataset (§5.1, §5.3.3).

use rdfa_model::{Graph, Term, Triple};
use rdfa_sparql::Solutions;
use rdfa_store::{PersistConfig, PersistError, SharedStore, Store};

/// Namespace for answer-frame resources and properties.
pub const AF_NS: &str = "urn:rdfa:af:";

/// The class every reloaded answer row is typed with.
pub const AF_ROW_CLASS: &str = "urn:rdfa:af:Row";

/// The tabular answer of an analytic query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerFrame {
    /// Column labels: grouping attributes first, then one per aggregate
    /// (e.g. `["manufacturer", "origin", "avg(price)"]`).
    pub headers: Vec<String>,
    /// Rows of terms; `None` = no value (e.g. AVG over an empty group).
    pub rows: Vec<Vec<Option<Term>>>,
    /// The HIFUN expression of the query (for display, §5.1).
    pub hifun: String,
    /// The SPARQL translation that produced the answer.
    pub sparql: String,
}

impl AnswerFrame {
    /// Wrap a solution table with display headers.
    pub fn from_solutions(
        headers: Vec<String>,
        solutions: Solutions,
        hifun: String,
        sparql: String,
    ) -> Self {
        debug_assert_eq!(headers.len(), solutions.vars().len());
        AnswerFrame { headers, rows: solutions.into_rows(), hifun, sparql }
    }

    /// Number of answer rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as a plain-text table (Fig 6.3 a). Fractional numerics are
    /// rounded to two decimals for display (the underlying terms keep full
    /// precision).
    /// Column widths are measured in characters, not bytes, so non-ASCII
    /// labels stay aligned.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        let render = |t: &Term| -> String {
            match rdfa_model::Value::from_term(t) {
                rdfa_model::Value::Float(v) if v.fract().abs() > 1e-9 => format!("{v:.2}"),
                _ => t.display_name(),
            }
        };
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let s = c.as_ref().map(render).unwrap_or_default();
                        widths[i] = widths[i].max(s.chars().count());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            out.push_str(&format!("| {:<w$} ", h, w = widths[i]));
        }
        out.push_str("|\n");
        for w in &widths {
            out.push_str(&format!("|{}", "-".repeat(w + 2)));
        }
        out.push_str("|\n");
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("| {:<w$} ", c, w = widths[i]));
            }
            out.push_str("|\n");
        }
        out
    }

    /// Build the frame's 2D bar chart (Fig 6.4): categories from the first
    /// column, one series per aggregate column (the columns after
    /// `n_group_cols`). Rows beyond `max_rows` are dropped with a truncation
    /// note in the title.
    pub fn bar_chart(
        &self,
        n_group_cols: usize,
        max_rows: usize,
    ) -> Result<rdfa_viz::BarChart, String> {
        if n_group_cols >= self.headers.len() {
            return Err("no aggregate columns to chart".into());
        }
        let series: Vec<String> = self.headers[n_group_cols..].to_vec();
        let truncated = self.rows.len() > max_rows;
        let data: Vec<rdfa_viz::BarDatum> = self
            .rows
            .iter()
            .take(max_rows)
            .map(|row| rdfa_viz::BarDatum {
                label: row[..n_group_cols]
                    .iter()
                    .map(|c| c.as_ref().map(|t| t.display_name()).unwrap_or_default())
                    .collect::<Vec<_>>()
                    .join(" / "),
                values: row[n_group_cols..]
                    .iter()
                    .map(|c| {
                        c.as_ref()
                            .and_then(|t| rdfa_model::Value::from_term(t).as_f64())
                            .unwrap_or(0.0)
                    })
                    .collect(),
            })
            .collect();
        let title = if truncated {
            format!("{} (first {max_rows} of {} groups)", self.hifun, self.rows.len())
        } else {
            self.hifun.clone()
        };
        rdfa_viz::BarChart::new(title, series, data)
    }

    /// Export as CSV: headers then rows, comma-separated with quoting. This
    /// is the interchange format of the dissertation's 3D visualizer
    /// (system (1b): "data is imported as a .csv file where the headers
    /// correspond to the attributes of analysis").
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = self
            .headers
            .iter()
            .map(|h| cell(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            let line = row
                .iter()
                .map(|c| cell(&c.as_ref().map(|t| t.display_name()).unwrap_or_default()))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The property IRI a column gets when the frame is reloaded.
    pub fn column_property(&self, index: usize) -> String {
        format!("{AF_NS}{}", sanitize(&self.headers[index]))
    }

    /// **Load the AF as a new dataset** (§5.3.3, the "Explore with FS"
    /// button): each tuple `(t_i1 … t_ik)` gets a fresh identifier `t_i` and
    /// produces the `n × k` triples `(t_i, A_j, t_ij)`, plus an `rdf:type
    /// af:Row` triple so the rows form a class the faceted UI can start
    /// from. Subsequent restrictions over the returned store correspond to
    /// HAVING clauses over the original data, and the process nests without
    /// limit.
    pub fn load_as_dataset(&self) -> Store {
        let mut store = Store::new();
        store.load_graph(&self.dataset_graph());
        store
    }

    /// The reload triples themselves (what [`load_as_dataset`] inserts):
    /// per row, one `rdf:type af:Row` triple plus one triple per bound cell.
    ///
    /// [`load_as_dataset`]: AnswerFrame::load_as_dataset
    pub fn dataset_graph(&self) -> Graph {
        let row_class = Term::iri(AF_ROW_CLASS);
        let rdf_type = Term::iri(rdfa_model::vocab::rdf::TYPE);
        let mut graph = Graph::new();
        for (i, row) in self.rows.iter().enumerate() {
            let subject = Term::iri(format!("{AF_NS}row{}", i + 1));
            graph.push(Triple::new(subject.clone(), rdf_type.clone(), row_class.clone()));
            for (j, cell) in row.iter().enumerate() {
                if let Some(value) = cell {
                    graph.push(Triple::new(
                        subject.clone(),
                        Term::iri(self.column_property(j)),
                        value.clone(),
                    ));
                }
            }
        }
        graph
    }

    /// Reload the AF as a **durable** dataset rooted at `dir`: the answer
    /// triples are WAL-logged into a durable [`SharedStore`], so an analysis
    /// session built on a reloaded answer survives a crash and can be
    /// reopened later (the nested-exploration workflow of §5.3.3, made
    /// restart-safe). Reopening a non-empty directory appends nothing; the
    /// existing dataset wins.
    pub fn persist_as_dataset(
        &self,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<SharedStore, PersistError> {
        let store = SharedStore::open(dir, PersistConfig::default())?;
        store.transact(|txn| {
            if txn.store().is_empty() {
                txn.load_graph(&self.dataset_graph())?;
            }
            Ok::<_, PersistError>(())
        })?;
        Ok(store)
    }
}

/// Make a header safe for use inside an IRI.
fn sanitize(header: &str) -> String {
    header
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> AnswerFrame {
        AnswerFrame {
            headers: vec!["manufacturer".into(), "year".into(), "avg(price)".into()],
            rows: vec![
                vec![
                    Some(Term::iri("http://e/DELL")),
                    Some(Term::integer(2020)),
                    Some(Term::integer(900)),
                ],
                vec![
                    Some(Term::iri("http://e/ACER")),
                    Some(Term::integer(2021)),
                    Some(Term::integer(820)),
                ],
                vec![
                    Some(Term::iri("http://e/DELL")),
                    Some(Term::integer(2021)),
                    Some(Term::integer(1000)),
                ],
            ],
            hifun: "(manufacturer ⊗ year∘releaseDate, price, AVG)".into(),
            sparql: String::new(),
        }
    }

    #[test]
    fn table_rendering() {
        let t = frame().to_table();
        assert!(t.contains("manufacturer"));
        assert!(t.contains("DELL"));
        assert!(t.contains("avg(price)"));
    }

    #[test]
    fn reload_produces_n_times_k_plus_type_triples() {
        let f = frame();
        let store = f.load_as_dataset();
        // 3 rows × (3 value triples + 1 type triple)
        assert_eq!(store.len(), 12);
        let row_class = store.lookup_iri(AF_ROW_CLASS).unwrap();
        assert_eq!(store.instances_set(row_class).len(), 3);
    }

    #[test]
    fn reloaded_dataset_supports_faceted_search() {
        // Fig 5.2: each column becomes a facet with the column values
        let f = frame();
        let store = f.load_as_dataset();
        let rows = store.instances_set(store.lookup_iri(AF_ROW_CLASS).unwrap());
        let facets = rdfa_facets::property_facets(&store, &rows);
        assert_eq!(facets.len(), 3);
        let man = facets
            .iter()
            .find(|p| store.term(p.property).display_name() == "manufacturer")
            .unwrap();
        // DELL appears in 2 rows, ACER in 1
        let counts: Vec<usize> = man.values.iter().map(|&(_, n)| n).collect();
        assert_eq!(counts.iter().sum::<usize>(), 3);
    }

    #[test]
    fn reload_skips_unbound_cells() {
        let mut f = frame();
        f.rows[0][2] = None;
        let store = f.load_as_dataset();
        assert_eq!(store.len(), 11);
    }

    #[test]
    fn persisted_dataset_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("rdfa-af-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f = frame();
        {
            let store = f.persist_as_dataset(&dir).unwrap();
            assert_eq!(store.snapshot().len(), 12);
            store.checkpoint().unwrap();
        }
        // reopen: the reloaded answer dataset is still there, still a
        // faceted-search starting point — and a second persist call does
        // not double-load it
        let store = f.persist_as_dataset(&dir).unwrap().snapshot();
        assert_eq!(store.len(), 12);
        let row_class = store.lookup_iri(AF_ROW_CLASS).unwrap();
        assert_eq!(store.instances_set(row_class).len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bar_chart_uses_aggregate_columns_as_series() {
        let f = frame();
        let chart = f.bar_chart(2, 10).unwrap();
        assert_eq!(chart.series_names, vec!["avg(price)".to_string()]);
        assert_eq!(chart.data.len(), 3);
        assert_eq!(chart.data[0].label, "DELL / 2020");
        assert_eq!(chart.data[0].values, vec![900.0]);
        // truncation annotates the title
        let small = f.bar_chart(2, 2).unwrap();
        assert!(small.title.contains("first 2 of 3"));
        // no aggregate columns → error
        assert!(f.bar_chart(3, 10).is_err());
    }

    #[test]
    fn csv_export_quotes_when_needed() {
        let mut f = frame();
        f.rows[0][0] = Some(Term::string("DELL, Inc. \"US\""));
        let csv = f.to_csv();
        assert!(csv.starts_with("manufacturer,year,avg(price)\n"));
        assert!(csv.contains("\"DELL, Inc. \"\"US\"\"\""));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn sanitized_column_properties() {
        let f = frame();
        assert_eq!(f.column_property(2), "urn:rdfa:af:avg_price_");
    }
}
