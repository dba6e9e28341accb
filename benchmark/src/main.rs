//! `rdfa-benchmark` — the click → HIFUN → SPARQL → answer trip, timed against
//! the real `rdfa-server` binary. See `benchmark/README.md`.
//!
//! ```text
//! rdfa-benchmark                                  all workloads, untraced then traced
//! rdfa-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! rdfa-benchmark compare A.json B.json            two result files, metric by metric
//! ```

mod affinity;
mod check;
mod http;
mod json;
mod layers;
mod metrics;
mod proc;
mod script;
mod stats;
mod trace;
mod workload;

use json::{number, quote, Json};
use metrics::Manifest;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::{Config, Outcome, Workload};

/// The paper-scale dataset: 63,500 products, about 509k triples.
const PRODUCTS: usize = 63_500;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    products: usize,
    repeat: usize,
}

fn usage() -> String {
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--products N] \
     [--smoke] [--repeat N]\n       run.sh compare A.json B.json"
        .to_owned()
}

fn parse_args(argv: &[String], manifest: &Manifest) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: manifest.run_seconds,
        trace: false,
        products: PRODUCTS,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes seconds")?
            }
            "--trace" => args.trace = value()? != "0",
            "--products" => {
                args.products = value()?.parse().map_err(|_| "--products takes a count")?
            }
            // a set of runs for `compare`: seeds counting up from --seed
            "--repeat" => args.repeat = value()?.parse().map_err(|_| "--repeat takes a count")?,
            "--smoke" => {
                args.products = 5_000;
                args.seconds = 3.0;
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.products == 0 || args.repeat == 0 {
        return Err("seconds, products and repeat must be positive".to_owned());
    }
    Ok(args)
}

/// One run's metrics as `BENCHMARK.json` lists them for its mode: name, value,
/// unit, in the file's order. A metric measured but not listed, or listed but
/// not measured, is an error — the file is what the driver holds a run to.
fn listed<'m>(
    manifest: &'m Manifest,
    trace: bool,
    outcome: &Outcome,
) -> Result<Vec<(&'m str, f64, &'m str)>, String> {
    let wanted = manifest.of_mode(trace);
    if let Some((name, _)) = outcome
        .metrics
        .iter()
        .find(|(name, _)| !wanted.iter().any(|m| m.name == *name))
    {
        return Err(format!(
            "{name} was measured but BENCHMARK.json does not list it"
        ));
    }
    wanted
        .iter()
        .map(|m| {
            outcome
                .metrics
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, value)| (m.name.as_str(), *value, m.unit.as_str()))
                .ok_or(format!(
                    "BENCHMARK.json lists {} but it was not measured",
                    m.name
                ))
        })
        .collect()
}

/// `"correct", "attempted", "failed", "metrics"` — the fields of the one line
/// the driver reads, and of every run in a result file.
fn outcome_fields(outcome: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        fields.join(", ")
    )
}

fn print_metrics(
    workload: Workload,
    trace: bool,
    outcome: &Outcome,
    metrics: &[(&str, f64, &str)],
) {
    println!(
        "# {} ({}): {} attempted, {} failed",
        workload.name(),
        if trace { "traced" } else { "untraced" },
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (name, value, unit) in metrics {
        println!("{:<14} {name:<34} {value:>16.4} {unit}", workload.name());
    }
    for p in &outcome.tally.problems {
        println!("# FAILED: {p}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn machine_json(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_owned(), |k| k.trim().to_owned());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"git_rev\": {}, \"seed\": {}, \"window_s\": {}, \"products\": {}, \"fsync\": \"always\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quote(&cpu),
        quote(&kernel),
        quote(&command_line("rustc", &["--version"])),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        args.seed,
        number(args.seconds),
        args.products
    )
}

fn config(args: &Args, workload: Workload, seed: u64, trace: bool) -> Result<Config, String> {
    let server_bin = std::env::var_os("RDFA_SERVER_BIN")
        .map(PathBuf::from)
        .ok_or("RDFA_SERVER_BIN is not set: start the benchmark through benchmark/run.sh, which builds the server")?;
    if !server_bin.is_file() {
        return Err(format!("{} is not a file", server_bin.display()));
    }
    Ok(Config {
        workload,
        seed,
        seconds: args.seconds,
        trace,
        products: args.products,
        server_bin,
        out_dir: out_dir()?,
        cores: affinity::Cores::split(),
    })
}

/// `benchmark/out/` under the working directory (`run.sh` starts the driver at
/// the root of the checkout): everything a run writes goes there.
fn out_dir() -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join("benchmark")
        .join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Every workload, untraced (`--repeat` times, seeds counting up) and then
/// traced; one result file for `compare`.
fn run_all(args: &Args, manifest: &Manifest) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        for (trace, seed) in (0..args.repeat as u64)
            .map(|i| (false, args.seed + i))
            .chain([(true, args.seed)])
        {
            let cfg = config(args, workload, seed, trace)?;
            let outcome = workload::run(&cfg)?;
            let metrics = listed(manifest, trace, &outcome)?;
            print_metrics(workload, trace, &outcome, &metrics);
            all_correct &= outcome.tally.failed == 0;
            runs.push(format!(
                "    {{\"workload\": {}, \"trace\": {}, \"seed\": {seed}, {}}}",
                quote(workload.name()),
                trace as u8,
                outcome_fields(&outcome, &metrics)
            ));
        }
    }
    let result = format!(
        "{{\n  \"machine\": {},\n  \"runs\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        machine_json(args),
        runs.join(",\n")
    );
    let path = out_dir()?.join("result.json");
    std::fs::write(&path, &result).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# result written to {}", path.display());
    print!("{result}");
    Ok(all_correct)
}

/// The runs of a result file.
fn runs_of(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc
        .get("runs")
        .ok_or(format!("{path}: no runs"))?
        .as_arr()
        .to_vec())
}

fn runs_for(runs: &[Json], workload: Workload) -> impl Iterator<Item = &Json> {
    runs.iter()
        .filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload.name()))
}

/// Median of one end-to-end metric over a workload's untraced runs.
fn median_of(runs: &[Json], workload: Workload, metric: &str) -> Option<f64> {
    let values: Vec<f64> = runs_for(runs, workload)
        .filter(|r| r.num("trace") == 0.0)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect();
    (!values.is_empty()).then(|| stats::median(&values))
}

/// Failed operations as a share of those attempted, over all of a workload's
/// runs; `None` when the file has no run of it.
fn failed_share(runs: &[Json], workload: Workload) -> Option<f64> {
    let (failed, attempted) = runs_for(runs, workload).fold((0.0, 0.0), |(f, a), r| {
        (f + r.num("failed"), a + r.num("attempted"))
    });
    (attempted > 0.0).then(|| failed / attempted)
}

/// A against B. B is marked, and the exit code says so, where it is worse
/// than A by more than a metric's bound, lacks a metric or a workload A has,
/// or fails a larger share of its operations (bound +0: any rise).
fn compare(a: &str, b: &str, manifest: &Manifest) -> Result<bool, String> {
    let (a_runs, b_runs) = (runs_of(a)?, runs_of(b)?);
    let mut within = true;
    let mut compared = 0;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for workload in Workload::ALL {
        let Some(failed_a) = failed_share(&a_runs, workload) else {
            continue;
        };
        let failed_b = failed_share(&b_runs, workload);
        let more_failures = failed_b.is_none_or(|fb| fb > failed_a);
        within &= !more_failures;
        println!(
            "{:<14} {:<20} {failed_a:>14.6} {:>14} {:>9} {:>6}% {}",
            workload.name(),
            "failed/attempted",
            failed_b.map_or("missing".to_owned(), |fb| format!("{fb:.6}")),
            "",
            "+0",
            match failed_b {
                None => "<-- B has no run of this workload",
                Some(_) if more_failures => "<-- more operations fail",
                Some(_) => "",
            }
        );
        for m in &manifest.end_to_end {
            let Some(va) = median_of(&a_runs, workload, &m.name) else {
                continue;
            };
            let bound = m
                .bound
                .ok_or(format!("BENCHMARK.json: {} has no bound", m.name))?;
            let Some(vb) = median_of(&b_runs, workload, &m.name) else {
                within = false;
                println!(
                    "{:<14} {:<20} {va:>14.4} {:>14} {:>9} {:>6.0}% <-- missing in B",
                    workload.name(),
                    m.name,
                    "missing",
                    "",
                    bound * 100.0
                );
                continue;
            };
            compared += 1;
            let change = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            let worse = if m.better == "lower" { change } else { -change };
            let beyond = worse > bound;
            within &= !beyond;
            println!(
                "{:<14} {:<20} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}% {}",
                workload.name(),
                m.name,
                change * 100.0,
                bound * 100.0,
                if beyond {
                    "<-- worse beyond its bound"
                } else {
                    ""
                }
            );
        }
    }
    if compared == 0 {
        return Err(format!(
            "{a} and {b} share no untraced run of a metric BENCHMARK.json lists: nothing was compared"
        ));
    }
    Ok(within)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Manifest::load().and_then(|manifest| {
        if let Some(w) = Workload::ALL
            .iter()
            .find(|w| !manifest.workloads.iter().any(|name| name == w.name()))
        {
            return Err(format!(
                "BENCHMARK.json does not list workload {}",
                w.name()
            ));
        }
        match argv.first().map(String::as_str) {
            Some("compare") if argv.len() == 3 => compare(&argv[1], &argv[2], &manifest),
            Some("compare") => Err(usage()),
            _ => {
                let args = parse_args(&argv, &manifest)?;
                match args.workload {
                    None => run_all(&args, &manifest),
                    Some(workload) => {
                        let cfg = config(&args, workload, args.seed, args.trace)?;
                        let outcome = workload::run(&cfg)?;
                        let metrics = listed(&manifest, args.trace, &outcome)?;
                        print_metrics(workload, args.trace, &outcome, &metrics);
                        println!("{{{}}}", outcome_fields(&outcome, &metrics));
                        // a wrong answer is a result the driver must see, not a crash
                        Ok(true)
                    }
                }
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("rdfa-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
