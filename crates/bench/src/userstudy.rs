//! The simulated task-based evaluation (Figures 8.1/8.2; DESIGN.md
//! substitution 2).
//!
//! The paper's §8.1 evaluates 11 tasks with 20 users, reporting per-task
//! completion rates and 1–5 ratings. The tasks are re-encoded here as click
//! programs against the real system; each program's execution is the ground
//! truth (it exercises the full state-machine → HIFUN → SPARQL → answer
//! path and doubles as an implementability check, §8.2). The *human* layer —
//! slips and subjective ratings — is a stochastic model calibrated to the
//! paper's reported shape: completion near-perfect for plain faceted tasks,
//! dipping slightly for the novel analytics actions, ratings averaging ≈4.3.

use rdfa_prng::StdRng;
use rdfa_core::{AnalyticsSession, GroupSpec, MeasureSpec};
use rdfa_datagen::{ProductsGenerator, EX};
use rdfa_facets::{FacetedSession, PathStep};
use rdfa_hifun::{AggOp, CondOp, DerivedFn};
use rdfa_model::{Term, Value};
use rdfa_store::Store;

/// One evaluation task: a description, its UI action count (difficulty),
/// whether it needs the *novel* analytics actions, and the click program.
pub struct Task {
    pub id: &'static str,
    pub description: &'static str,
    pub actions: usize,
    pub novel: bool,
    /// Execute the task against the store; returns the result-set/answer
    /// size, or an error when the system cannot express it.
    pub run: fn(&Store) -> Result<usize, String>,
}

fn id_of(store: &Store, local: &str) -> Result<rdfa_store::TermId, String> {
    store
        .lookup_iri(&format!("{EX}{local}"))
        .ok_or_else(|| format!("resource {local} not present in this KG"))
}

/// The eleven tasks, ordered roughly by difficulty as in Fig 8.1: plain
/// faceted search first, analytics next, path/derived/nested analytics last.
pub fn tasks() -> Vec<Task> {
    vec![
        Task {
            id: "T1",
            description: "find all laptops (class click)",
            actions: 1,
            novel: false,
            run: |s| {
                let mut fs = FacetedSession::start(s);
                fs.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                Ok(fs.extension().len())
            },
        },
        Task {
            id: "T2",
            description: "laptops of a given manufacturer (facet value click)",
            actions: 2,
            novel: false,
            run: |s| {
                let mut fs = FacetedSession::start(s);
                fs.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                fs.select_value(id_of(s, "manufacturer")?, id_of(s, "Company0")?)
                    .map_err(|e| e.message)?;
                Ok(fs.extension().len())
            },
        },
        Task {
            id: "T3",
            description: "laptops with 2–4 USB ports (range filter)",
            actions: 2,
            novel: false,
            run: |s| {
                let mut fs = FacetedSession::start(s);
                fs.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                fs.select_range(
                    &[PathStep::fwd(id_of(s, "USBPorts")?)],
                    Some(Value::Int(2)),
                    Some(Value::Int(4)),
                )
                .map_err(|e| e.message)?;
                Ok(fs.extension().len())
            },
        },
        Task {
            id: "T4",
            description: "laptops whose manufacturer is from the USA (path expansion)",
            actions: 3,
            novel: false,
            run: |s| {
                let mut fs = FacetedSession::start(s);
                fs.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                fs.select_path_value(
                    &[PathStep::fwd(id_of(s, "manufacturer")?), PathStep::fwd(id_of(s, "origin")?)],
                    id_of(s, "USA")?,
                )
                .map_err(|e| e.message)?;
                Ok(fs.extension().len())
            },
        },
        Task {
            id: "T5",
            description: "count laptops per manufacturer (G + count)",
            actions: 3,
            novel: true,
            run: |s| {
                let mut a = AnalyticsSession::start(s);
                a.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                a.add_grouping(GroupSpec::property(id_of(s, "manufacturer")?));
                a.set_ops(vec![AggOp::Count]);
                Ok(a.run().map_err(|e| e.message)?.len())
            },
        },
        Task {
            id: "T6",
            description: "average price of laptops (⨊ avg, no grouping)",
            actions: 3,
            novel: true,
            run: |s| {
                let mut a = AnalyticsSession::start(s);
                a.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                a.set_measure(MeasureSpec::property(id_of(s, "price")?));
                a.set_ops(vec![AggOp::Avg]);
                Ok(a.run().map_err(|e| e.message)?.len())
            },
        },
        Task {
            id: "T7",
            description: "avg price by manufacturer (G + ⨊)",
            actions: 4,
            novel: true,
            run: |s| {
                let mut a = AnalyticsSession::start(s);
                a.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                a.add_grouping(GroupSpec::property(id_of(s, "manufacturer")?));
                a.set_measure(MeasureSpec::property(id_of(s, "price")?));
                a.set_ops(vec![AggOp::Avg]);
                Ok(a.run().map_err(|e| e.message)?.len())
            },
        },
        Task {
            id: "T8",
            description: "avg/sum/max price by manufacturer and origin (Fig 6.2)",
            actions: 6,
            novel: true,
            run: |s| {
                let mut a = AnalyticsSession::start(s);
                a.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                a.add_grouping(GroupSpec::property(id_of(s, "manufacturer")?));
                a.add_grouping(GroupSpec::path(vec![
                    id_of(s, "manufacturer")?,
                    id_of(s, "origin")?,
                ]));
                a.set_measure(MeasureSpec::property(id_of(s, "price")?));
                a.set_ops(vec![AggOp::Avg, AggOp::Sum, AggOp::Max]);
                Ok(a.run().map_err(|e| e.message)?.len())
            },
        },
        Task {
            id: "T9",
            description: "count laptops by release year (derived attribute)",
            actions: 4,
            novel: true,
            run: |s| {
                let mut a = AnalyticsSession::start(s);
                a.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                a.add_grouping(
                    GroupSpec::property(id_of(s, "releaseDate")?).with_derived(DerivedFn::Year),
                );
                a.set_ops(vec![AggOp::Count]);
                Ok(a.run().map_err(|e| e.message)?.len())
            },
        },
        Task {
            id: "T10",
            description: "avg price by origin for laptops with ≥2 USB ports (filter + path G)",
            actions: 6,
            novel: true,
            run: |s| {
                let mut a = AnalyticsSession::start(s);
                a.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                a.select_range(
                    &[PathStep::fwd(id_of(s, "USBPorts")?)],
                    Some(Value::Int(2)),
                    None,
                )
                .map_err(|e| e.message)?;
                a.add_grouping(GroupSpec::path(vec![
                    id_of(s, "manufacturer")?,
                    id_of(s, "origin")?,
                ]));
                a.set_measure(MeasureSpec::property(id_of(s, "price")?));
                a.set_ops(vec![AggOp::Avg]);
                Ok(a.run().map_err(|e| e.message)?.len())
            },
        },
        Task {
            id: "T11",
            description: "manufacturers whose avg price exceeds a threshold (HAVING via reload)",
            actions: 7,
            novel: true,
            run: |s| {
                let mut a = AnalyticsSession::start(s);
                a.select_class(id_of(s, "Laptop")?).map_err(|e| e.message)?;
                a.add_grouping(GroupSpec::property(id_of(s, "manufacturer")?));
                a.set_measure(MeasureSpec::property(id_of(s, "price")?));
                a.set_ops(vec![AggOp::Avg]);
                a.add_having(0, CondOp::Ge, Term::integer(1200)).map_err(|e| e.message)?;
                Ok(a.run().map_err(|e| e.message)?.len())
            },
        },
    ]
}

/// Per-task outcome of the simulated study.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    pub id: &'static str,
    pub description: &'static str,
    /// Users (of `n_users`) who completed the task.
    pub completed: usize,
    pub n_users: usize,
    /// Mean 1–5 rating across users.
    pub mean_rating: f64,
    /// Size of the (system-computed) ground-truth answer.
    pub answer_size: usize,
}

impl TaskOutcome {
    /// Completion percentage.
    pub fn completion_pct(&self) -> f64 {
        100.0 * self.completed as f64 / self.n_users as f64
    }
}

/// Run the simulated study: `n_users` stochastic users per task over a
/// generated products KG. Every task is first executed by the system itself
/// (the implementability check of §8.2); a task the system cannot answer
/// scores zero.
pub fn run_study(n_users: usize, seed: u64) -> Vec<TaskOutcome> {
    let mut store = Store::new();
    store.load_graph(&ProductsGenerator::new(200, seed).generate());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    tasks()
        .into_iter()
        .map(|task| {
            let answer = (task.run)(&store);
            let (answer_size, feasible) = match answer {
                Ok(n) => (n, true),
                Err(_) => (0, false),
            };
            let mut completed = 0usize;
            let mut ratings = 0.0f64;
            for _ in 0..n_users {
                // per-action slip: 1.5% base, +2% on the novel analytics
                // actions (calibrated to Fig 8.1's shape)
                let slip: f64 = 0.015 + if task.novel { 0.02 } else { 0.0 };
                let p_success = (1.0 - slip).powi(task.actions as i32);
                let success = feasible && rng.gen_bool(p_success.clamp(0.0, 1.0));
                if success {
                    completed += 1;
                }
                let base = 5.0 - 0.12 * task.actions as f64 - if task.novel { 0.25 } else { 0.0 };
                let noise: f64 = rng.gen_range(-0.35..0.35);
                let penalty = if success { 0.0 } else { 1.2 };
                ratings += (base + noise - penalty).clamp(1.0, 5.0);
            }
            TaskOutcome {
                id: task.id,
                description: task.description,
                completed,
                n_users,
                mean_rating: ratings / n_users as f64,
                answer_size,
            }
        })
        .collect()
}

/// §8.2 implementability: every task must be expressible and answerable by
/// the system itself (independent of the user model).
pub fn implementability_check(store: &Store) -> Vec<(&'static str, Result<usize, String>)> {
    tasks().into_iter().map(|t| (t.id, (t.run)(store))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_datagen::products_fixture;

    #[test]
    fn all_tasks_implementable_on_generated_kg() {
        let mut store = Store::new();
        // seed chosen so the 4-company backbone includes a USA-origin
        // company (T4 clicks manufacturer/origin = USA)
        store.load_graph(&ProductsGenerator::new(150, 4).generate());
        for (id, result) in implementability_check(&store) {
            assert!(result.is_ok(), "task {id} failed: {result:?}");
            assert!(result.unwrap() > 0, "task {id} returned an empty answer");
        }
    }

    #[test]
    fn all_tasks_implementable_on_fixture() {
        // the small Fig 5.3 fixture lacks Company0; swap the value-click task
        // target accordingly by checking only that the system responds
        let mut store = Store::new();
        store.load_graph(&products_fixture());
        let results = implementability_check(&store);
        // T2 targets Company0 which the fixture doesn't have — every other
        // task must succeed
        for (id, result) in results {
            if id == "T2" {
                continue;
            }
            assert!(result.is_ok(), "task {id} failed on fixture: {result:?}");
        }
    }

    #[test]
    fn study_shape_matches_paper() {
        let outcomes = run_study(20, 42);
        assert_eq!(outcomes.len(), 11);
        let total_completion: f64 =
            outcomes.iter().map(TaskOutcome::completion_pct).sum::<f64>() / outcomes.len() as f64;
        let total_rating: f64 =
            outcomes.iter().map(|o| o.mean_rating).sum::<f64>() / outcomes.len() as f64;
        // the paper reports high acceptance: most tasks completed, ratings ≈4+
        assert!(total_completion > 80.0, "completion {total_completion}");
        assert!(total_rating > 3.5, "rating {total_rating}");
        // plain faceted tasks should not complete worse than the hardest
        // analytics task
        let t1 = outcomes.iter().find(|o| o.id == "T1").unwrap().completion_pct();
        let t11 = outcomes.iter().find(|o| o.id == "T11").unwrap().completion_pct();
        assert!(t1 >= t11);
    }

    #[test]
    fn study_deterministic_per_seed() {
        let a = run_study(20, 7);
        let b = run_study(20, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.completed, y.completed);
            assert!((x.mean_rating - y.mean_rating).abs() < 1e-12);
        }
    }
}
