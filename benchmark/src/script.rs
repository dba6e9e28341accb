//! The click script: what one analyst does in one session.
//!
//! One *pass* is the 12 click templates, each once, in a seeded order. Each
//! template has a pool of up to 8 parameter variants (≈90 distinct states,
//! below the server's 128-entry facet cache); pass `i` takes variant
//! `(i mod pool)`, so a window of a few passes samples every variant evenly
//! instead of by luck of the draw. The pools are in the same order on every
//! seed: where a window is two passes long (`explore_mmap`) it clicks the same
//! states whatever the seed, and seeds differ by their data, their companies
//! and their click order, not by which queries happened to be timed.
//!
//! Facet clicks (`F0`, `F1`, `Q1`–`Q5`) are the requests the GUI's left frame
//! issues; analytic clicks (`Q6`–`Q10`) are stated in HIFUN notation and
//! translated to SPARQL inside the timed interval — the paper's whole trip.
//! The answer table is asked for sorted by its first column ([`translate`]).

use rdf_analytics::datagen::EX;
use rdf_analytics::hifun::{self, CondOp, HifunQuery, Restriction, Step};
use rdf_analytics::model::Term;
use rdf_analytics::server::percent_encode;
use rdfa_prng::StdRng;

/// Variants in a full pool: pass `i` and pass `i + POOL` click the same states.
pub const POOL: usize = 8;

/// What a click asks for.
#[derive(Debug, Clone)]
pub enum Action {
    /// `GET /v1/facets[?class=<iri>]`.
    Facets { class: Option<String> },
    /// `GET /v1/query?query=<sparql>`.
    Sparql(String),
    /// A HIFUN query in the paper's notation, optionally rooted at a class
    /// and at a `USBPorts` range (the faceted extension it is asked over).
    Hifun {
        text: String,
        class: Option<String>,
        usb_range: Option<(i64, i64)>,
    },
}

pub struct Template {
    pub id: &'static str,
    pub analytic: bool,
    pub variants: Vec<Action>,
}

/// One click of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Click {
    pub template: usize,
    pub variant: usize,
}

pub struct Script {
    pub templates: Vec<Template>,
    seed: u64,
}

fn ex(local: &str) -> String {
    format!("{EX}{local}")
}

/// Fisher–Yates with the workspace's PRNG.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

impl Script {
    pub fn new(seed: u64, n_companies: usize) -> Script {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x005C_21F7);
        let base: std::collections::HashMap<&str, String> = rdfa_bench::queries::workload()
            .into_iter()
            .map(|q| (q.id, q.sparql))
            .collect();
        let sparql = |id: &str, subst: &[(&str, String)]| {
            let mut text = base[id].clone();
            for (from, to) in subst {
                assert!(
                    text.contains(from),
                    "{id} of the Table 6.1 workload no longer holds {from:?}"
                );
                text = text.replace(from, to);
            }
            Action::Sparql(text)
        };
        let classes = [
            "Laptop", "Product", "HDType", "SSD", "NVMe", "Company", "Person", "Country",
        ];

        let mut companies: Vec<usize> = (0..n_companies).collect();
        shuffle(&mut companies, &mut rng);
        companies.truncate(POOL);

        let ops = ["AVG", "SUM", "MIN", "MAX"];
        let hifun = |text: String, class: Option<&str>, usb_range| Action::Hifun {
            text,
            class: class.map(ex),
            usb_range,
        };

        let templates = vec![
            Template {
                id: "F0",
                analytic: false,
                variants: vec![Action::Facets { class: None }],
            },
            Template {
                id: "F1",
                analytic: false,
                variants: classes
                    .iter()
                    .map(|c| Action::Facets { class: Some(ex(c)) })
                    .collect(),
            },
            Template {
                id: "Q1",
                analytic: false,
                variants: classes
                    .iter()
                    .map(|c| sparql("Q1", &[("ex:Laptop", format!("ex:{c}"))]))
                    .collect(),
            },
            Template {
                id: "Q2",
                analytic: false,
                variants: [
                    ("Laptop", "manufacturer"),
                    ("Laptop", "USBPorts"),
                    ("Laptop", "price"),
                    ("Laptop", "releaseDate"),
                    ("SSD", "manufacturer"),
                    ("NVMe", "manufacturer"),
                    ("HDType", "manufacturer"),
                    ("Product", "manufacturer"),
                ]
                .iter()
                .map(|(c, p)| {
                    sparql(
                        "Q2",
                        &[
                            ("ex:Laptop", format!("ex:{c}")),
                            ("ex:manufacturer", format!("ex:{p}")),
                        ],
                    )
                })
                .collect(),
            },
            Template {
                id: "Q3",
                analytic: false,
                variants: companies
                    .iter()
                    .map(|k| sparql("Q3", &[("ex:Company0", format!("ex:Company{k}"))]))
                    .collect(),
            },
            Template {
                id: "Q4",
                analytic: false,
                variants: [
                    ("USBPorts", 1),
                    ("USBPorts", 2),
                    ("USBPorts", 3),
                    ("USBPorts", 4),
                    ("price", 500),
                    ("price", 1000),
                    ("price", 2000),
                    ("price", 2500),
                ]
                .iter()
                .map(|(p, k)| {
                    sparql(
                        "Q4",
                        &[
                            ("ex:USBPorts", format!("ex:{p}")),
                            (">= 2", format!(">= {k}")),
                        ],
                    )
                })
                .collect(),
            },
            Template {
                id: "Q5",
                analytic: false,
                variants: ["Laptop", "SSD", "NVMe", "HDType", "Product"]
                    .iter()
                    .map(|c| sparql("Q5", &[("ex:Laptop", format!("ex:{c}"))]))
                    .chain(["Laptop", "HDType", "Product"].iter().map(|c| {
                        sparql(
                            "Q5",
                            &[
                                ("ex:Laptop", format!("ex:{c}")),
                                (
                                    "ex:origin ?c",
                                    "ex:origin ?o . ?o ex:locatedAt ?c".to_owned(),
                                ),
                            ],
                        )
                    }))
                    .collect(),
            },
            Template {
                id: "Q6",
                analytic: true,
                variants: ["price", "USBPorts"]
                    .iter()
                    .flat_map(|m| {
                        ops.iter()
                            .map(move |op| format!("(manufacturer, {m}, {op})"))
                    })
                    .map(|t| hifun(t, None, None))
                    .collect(),
            },
            Template {
                id: "Q7",
                analytic: true,
                variants: ["origin∘manufacturer", "locatedAt∘origin∘manufacturer"]
                    .iter()
                    .flat_map(|g| ops.iter().map(move |op| format!("({g}, price, {op})")))
                    .map(|t| hifun(t, Some("Laptop"), None))
                    .collect(),
            },
            Template {
                id: "Q8",
                analytic: true,
                variants: ["year", "month", "day"]
                    .iter()
                    .flat_map(|f| {
                        ["ID, COUNT", "price, AVG", "price, SUM"]
                            .iter()
                            .map(move |m| format!("({f}∘releaseDate, {m})"))
                    })
                    .take(POOL)
                    .map(|t| hifun(t, None, None))
                    .collect(),
            },
            Template {
                id: "Q9",
                analytic: true,
                variants: [
                    (2, 4),
                    (1, 2),
                    (1, 3),
                    (2, 3),
                    (3, 4),
                    (1, 4),
                    (2, 2),
                    (3, 3),
                ]
                .iter()
                .map(|r| {
                    hifun(
                        "(manufacturer, price, AVG, SUM, MAX)".to_owned(),
                        Some("Laptop"),
                        Some(*r),
                    )
                })
                .collect(),
            },
            Template {
                id: "Q10",
                analytic: true,
                variants: [1200, 1500, 1550, 1600, 1640, 1660, 1700, 1750]
                    .iter()
                    .map(|t| hifun(format!("(manufacturer, price, AVG/>{t})"), None, None))
                    .collect(),
            },
        ];
        Script { templates, seed }
    }

    /// The clicks of pass `n`, a pure function of the seed and `n` — every
    /// set-up replays the same warm-up passes.
    pub fn pass(&self, n: usize) -> Vec<Click> {
        let mut rng =
            StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(n as u64));
        let mut clicks: Vec<Click> = self
            .templates
            .iter()
            .enumerate()
            .map(|(template, t)| Click {
                template,
                variant: n % t.variants.len(),
            })
            .collect();
        shuffle(&mut clicks, &mut rng);
        clicks
    }

    pub fn action(&self, click: Click) -> &Action {
        &self.templates[click.template].variants[click.variant]
    }

    pub fn states(&self) -> usize {
        self.templates.iter().map(|t| t.variants.len()).sum()
    }
}

impl Action {
    /// The HIFUN query of an analytic click: the notation parsed, rooted at
    /// the click's extension.
    pub fn hifun(&self) -> Option<HifunQuery> {
        let Action::Hifun {
            text,
            class,
            usb_range,
        } = self
        else {
            return None;
        };
        let mut q = hifun::parse_hifun(text, EX).expect("the script's HIFUN queries parse");
        if let Some(c) = class {
            q = q.over_class(c.clone());
        }
        if let Some((lo, hi)) = usb_range {
            let usb =
                |op, v| Restriction::via(vec![Step::Prop(ex("USBPorts"))], op, Term::integer(v));
            q = q.with_conditions(vec![usb(CondOp::Ge, *lo), usb(CondOp::Le, *hi)]);
        }
        Some(q)
    }

    /// The SPARQL text a query click sends (translated, for an analytic
    /// click); `None` for a facets click.
    pub fn sparql(&self) -> Option<String> {
        match self {
            Action::Facets { .. } => None,
            Action::Sparql(text) => Some(text.clone()),
            Action::Hifun { .. } => self.hifun().map(|q| translate(&q)),
        }
    }
}

/// HIFUN → SPARQL, with the answer sorted by its first column, the grouping
/// attribute, as the GUI's answer table shows it. The translator emits no
/// `ORDER BY`; without one no analytic click is in the fragment `rdfa-views`
/// answers, and `explore_warm` would have nothing of that layer to measure.
pub fn translate(query: &HifunQuery) -> String {
    let sparql = hifun::to_sparql(query);
    let select = sparql
        .strip_prefix("SELECT ")
        .expect("the translator emits a SELECT");
    // the first column is a plain variable, or `(<expr> AS ?alias)`
    let column = match select.strip_prefix('(') {
        Some(item) => item.split_once(" AS ").map(|(_, rest)| rest),
        None => Some(select),
    }
    .and_then(|rest| rest.split([' ', ')', '\n']).next())
    .filter(|var| var.starts_with('?'))
    .expect("the translator's first column is a variable or an alias");
    format!("{}\nORDER BY {column}", sparql.trim_end())
}

pub fn query_target(sparql: &str) -> String {
    format!("/v1/query?query={}", percent_encode(sparql))
}

pub fn facets_target(class: &Option<String>) -> String {
    match class {
        Some(c) => format!("/v1/facets?class={}", percent_encode(c)),
        None => "/v1/facets".to_owned(),
    }
}

// ---- the writer's updates ---------------------------------------------------

const PREFIXES: &str = "PREFIX ex: <http://www.ics.forth.gr/example#>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n";

/// The 9 triples of the `n`-th product the writer adds: a laptop shaped like
/// the generator's (8 triples) plus `ex:benchSeq n`, the handle by which
/// acknowledged writes are found again after a crash.
fn product_triples(seed: u64, n: usize, n_companies: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let maker = rng.gen_range(0..n_companies);
    let drive_maker = rng.gen_range(0..n_companies);
    let price = rng.gen_range(300..3000);
    let ports = rng.gen_range(1..5);
    let (y, m, d) = (
        rng.gen_range(2018..=2023),
        rng.gen_range(1..=12u8),
        rng.gen_range(1..=28u8),
    );
    format!(
        "ex:bench{n} a ex:Laptop ; ex:manufacturer ex:Company{maker} ; ex:price {price} ; ex:USBPorts {ports} ; \
         ex:releaseDate \"{y:04}-{m:02}-{d:02}\"^^xsd:date ; ex:hardDrive ex:benchdrive{n} ; ex:benchSeq {n} . \
         ex:benchdrive{n} a ex:SSD ; ex:manufacturer ex:Company{drive_maker} ."
    )
}

pub fn insert_update(seed: u64, n: usize, n_companies: usize) -> String {
    format!(
        "{PREFIXES}INSERT DATA {{ {} }}",
        product_triples(seed, n, n_companies)
    )
}

pub fn delete_update(seed: u64, n: usize, n_companies: usize) -> String {
    format!(
        "{PREFIXES}DELETE DATA {{ {} }}",
        product_triples(seed, n, n_companies)
    )
}

/// Every product the writer added that is still there, by sequence number.
pub fn live_writes_query() -> String {
    format!("SELECT ?n WHERE {{ ?x <{EX}benchSeq> ?n }}")
}

/// `Q1` as the generator's data answers it: the laptop count.
pub fn laptop_count_query() -> String {
    format!(
        "SELECT (COUNT(?x) AS ?n) WHERE {{ ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EX}Laptop> }}"
    )
}
