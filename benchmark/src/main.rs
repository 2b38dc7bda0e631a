//! `upanns-benchmark` — the repository's benchmark, as one command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> --seconds <s> --trace <0|1> [--sets <n>] [--quick]
//! ```
//!
//! Prints every metric as `workload metric value unit clock samples`, runs
//! the correctness checks, and ends its standard output with one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Each workload
//! runs in a child process of its own, so `peak_rss_mb` is per workload and
//! a panic in one is a counted failure with its message, not a lost run.
//! See `README.md` for the workloads, the metric glossary and how to
//! compare two commits.

#![forbid(unsafe_code)]

mod adapter;
mod clock;
mod fixtures;
mod micro;
mod names;
mod record;
mod stats;
mod trace;
mod workloads;

use names::Workload;
use record::{result_json, Ctx};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    sets: usize,
    child: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "error: {problem}\n\
         usage: upanns-benchmark [--workload <name|all>] [--seed <u64>] [--seconds <s>]\n\
         \x20                       [--trace <0|1>] [--sets <n>] [--quick]\n\
         \x20      upanns-benchmark --emit-benchmark-json | --emit-glossary\n\
         workloads: {}\n\
         default seed {}, hold-out seed {}",
        names::ALL
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(", "),
        names::DEFAULT_SEED,
        names::HOLDOUT_SEED
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: names::ALL.to_vec(),
        seed: names::DEFAULT_SEED,
        seconds: names::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        sets: 0,
        child: false,
    };
    let mut seconds_given = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name or `all`");
                args.workloads = if name == "all" {
                    names::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{name}`")))]
                };
            }
            "--seed" => {
                args.seed = value("a u64")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a u64"));
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number up to 600"));
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--sets" => {
                args.sets = value("a count")
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .unwrap_or_else(|| usage("--sets takes a count from 1 to 100"));
            }
            "--quick" => args.quick = true,
            "--child" => args.child = true,
            "--emit-benchmark-json" => {
                print!("{}", names::benchmark_json());
                std::process::exit(0);
            }
            "--emit-glossary" => {
                print!("{}", names::glossary_markdown());
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = 0.5;
    }
    args
}

/// Where traces and result files go: `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, contents: &str) {
    let dir = out_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.join(name).display());
    }
}

/// Runs one workload in this process and prints its result.
fn run_child(args: &Args) -> ExitCode {
    let workload = args.workloads[0];
    let mut ctx = Ctx::new(workload, args.seed, args.seconds, args.trace, args.quick);
    workloads::run(&mut ctx);
    let result = ctx.finish();
    if args.trace {
        write_out(
            &format!("trace-{}-{}.jsonl", workload.name(), args.seed),
            &result.tracer.to_jsonl(),
        );
    }
    print!("{}", result.text);
    println!(
        "{} RESULT {} {} {}",
        workload.name(),
        result.correct,
        result.attempted,
        result.failed
    );
    println!("{}", result.json_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the parent keeps of one child run.
struct ChildRun {
    workload: Workload,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `metric → (value, unit)` from the child's text lines.
    values: BTreeMap<String, (f64, String)>,
    /// The child's own result object, when it got as far as printing one.
    json: Option<String>,
}

/// Runs one workload in a child process and parses what it printed. A
/// child that dies without a result (a panic, a signal) is a run with every
/// operation failed, and its last words are reported.
fn spawn(args: &Args, workload: Workload, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    eprint!("{stderr}");

    let mut run = ChildRun {
        workload,
        trace,
        correct: false,
        attempted: 1,
        failed: 1,
        values: BTreeMap::new(),
        json: None,
    };
    let mut finished = false;
    for line in stdout.lines() {
        if line.starts_with('{') {
            run.json = Some(line.to_string());
            continue;
        }
        println!("{line}");
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        match fields.as_slice() {
            [_, "RESULT", correct, attempted, failed] => {
                run.correct = *correct == "true" && output.status.success();
                run.attempted = attempted.parse().unwrap_or(1);
                run.failed = failed.parse().unwrap_or(run.attempted);
                finished = true;
            }
            [_, metric, value, unit, _clock, _samples]
                if !matches!(*metric, "PROBLEM" | "NOTE") =>
            {
                if let Ok(v) = value.parse() {
                    run.values.insert(metric.to_string(), (v, unit.to_string()));
                }
            }
            _ => {}
        }
    }
    if !finished {
        let last_words = stderr
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("no message");
        println!(
            "{} PROBLEM died without a result ({}): {last_words}",
            workload.name(),
            output.status
        );
        run.json = None;
    }
    run
}

/// The driver's result object for a run that produced none of its own.
fn failure_json(run: &ChildRun) -> String {
    result_json(false, run.attempted.max(1), run.failed.max(1), &[])
}

fn main() -> ExitCode {
    clock::now_s(); // anchor the host clock at process start
    let args = parse_args();
    if args.child {
        return run_child(&args);
    }
    if args.sets > 0 {
        return run_sets(&args);
    }

    // One workload: exactly the driver's invocation — one child, its result
    // object last. `all`: every workload untraced, and traced as well when
    // asked, with one combined object last.
    if let [workload] = args.workloads[..] {
        let run = spawn(&args, workload, args.trace);
        println!("{}", run.json.clone().unwrap_or_else(|| failure_json(&run)));
        return if run.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let runs = run_all(&args);
    let metrics: Vec<(String, f64, String)> = runs
        .iter()
        .flat_map(|r| {
            r.values.iter().map(move |(name, (value, unit))| {
                (
                    format!("{}:{name}", r.workload.name()),
                    *value,
                    unit.clone(),
                )
            })
        })
        .collect();
    let correct = runs.iter().all(|r| r.correct);
    let line = result_json(
        correct,
        runs.iter().map(|r| r.attempted).sum::<u64>().max(1),
        runs.iter().map(|r| r.failed).sum(),
        &metrics,
    );
    write_out(&format!("results-{}.json", args.seed), &format!("{line}\n"));
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(args: &Args) -> Vec<ChildRun> {
    let mut runs = Vec::new();
    for &workload in &args.workloads {
        runs.push(spawn(args, workload, false));
        if args.trace {
            runs.push(spawn(args, workload, true));
        }
    }
    runs
}

/// Repeatability mode: the whole benchmark `--sets` times, then per
/// workload x metric the minimum, median and maximum over the sets and
/// whether their spread stays inside the metric's bound.
fn run_sets(args: &Args) -> ExitCode {
    let mut samples: BTreeMap<(Workload, String), (Vec<f64>, String)> = BTreeMap::new();
    let mut correct = true;
    for set in 0..args.sets {
        println!("# set {} of {}", set + 1, args.sets);
        for run in run_all(args) {
            correct &= run.correct;
            for (name, (value, unit)) in run.values {
                // A traced run repeats the end-to-end numbers on half the
                // budget; the table takes each metric from the run that
                // owns it.
                let owned =
                    names::find(&name).is_some_and(|(_, end_to_end)| end_to_end != run.trace);
                if owned {
                    let slot = samples
                        .entry((run.workload, name))
                        .or_insert_with(|| (Vec::new(), unit));
                    slot.0.push(value);
                }
            }
        }
    }
    let mut table = String::from(
        "| workload | metric | unit | clock | min | median | max | spread | bound | inside |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut all_inside = true;
    for ((workload, name), (values, unit)) in &samples {
        let (def, _) = names::find(name).expect("children emit catalogued names");
        let sorted = stats::sorted(values.clone());
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        let median = stats::median(values);
        // From four sets on, the interquartile spread the acceptance rule
        // uses; below that, the full range.
        let spread = if values.len() >= 4 {
            stats::spread(values)
        } else if median != 0.0 {
            (max - min) / median.abs()
        } else {
            0.0
        };
        let deterministic = matches!(def.clock, names::Clock::Modeled | names::Clock::Count);
        let (bound, inside) = match def.bound {
            // Simulated time and counts must repeat on one seed: to nine
            // digits, because a few of them are float sums over hash maps,
            // whose order differs from process to process.
            _ if deterministic => ("exact".to_string(), (max - min).abs() <= 1e-9 * max.abs()),
            Some(b) => (format!("{:.0} %", b * 100.0), spread <= b),
            None => ("-".to_string(), true),
        };
        // Only pipeline-wall lets thread timing choose batch shapes, so its
        // simulated numbers wobble; they are reported, not held to "exact".
        let inside = inside || (deterministic && *workload == Workload::PipelineWall);
        all_inside &= inside;
        let _ = writeln!(
            table,
            "| {} | `{}` | {} | {} | {:.6} | {:.6} | {:.6} | {:.2} % | {} | {} |",
            workload.name(),
            name,
            unit,
            def.clock.label(),
            min,
            median,
            max,
            spread * 100.0,
            bound,
            if inside { "yes" } else { "NO" }
        );
    }
    print!("{table}");
    write_out(&format!("sets-{}.md", args.seed), &table);
    if correct && all_inside {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The smoke test: every workload in `--quick` mode, untraced and
    /// traced. Each run must be correct, emit exactly the names
    /// `BENCHMARK.json` lists for its set, read 0 exactly where the
    /// catalogue says the workload does not measure a per-layer metric, and
    /// the six untraced runs together must stay under 20 s.
    #[test]
    fn quick_mode_emits_exactly_the_catalogue_on_every_workload() {
        let mut untraced_s = 0.0;
        let mut machine = Vec::new();
        for &workload in names::ALL {
            for trace in [false, true] {
                let (result, dt) = clock::timed(|| {
                    let mut ctx = Ctx::new(workload, names::HOLDOUT_SEED, 0.5, trace, true);
                    workloads::run(&mut ctx);
                    ctx.finish()
                });
                machine.push(clock::calibration_burst());
                if !trace {
                    untraced_s += dt;
                }
                assert!(
                    result.correct,
                    "{} (trace {trace}) is incorrect:\n{}",
                    workload.name(),
                    result.text
                );
                assert!(result.attempted >= 1 && result.failed == 0);
                let expected = if trace {
                    names::PER_LAYER
                } else {
                    names::END_TO_END
                };
                let emitted: BTreeSet<&str> =
                    result.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
                let listed: BTreeSet<&str> = expected.iter().map(|m| m.name).collect();
                assert_eq!(emitted, listed, "{} (trace {trace})", workload.name());
                for (name, value, unit) in &result.metrics {
                    let (def, _) = names::find(name).expect("listed");
                    assert_eq!(unit, def.unit);
                    assert!(value.is_finite(), "{name} = {value}");
                    assert!(
                        name.chars()
                            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                        "{name}"
                    );
                    if !def.applies_to(workload) {
                        assert_eq!(*value, 0.0, "{name} is not measured on {}", workload.name());
                    }
                    if !trace {
                        assert!(
                            *value != 0.0,
                            "end-to-end {name} is 0 on {}",
                            workload.name()
                        );
                    }
                }
                let line = result.json_line();
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                assert!(!line.contains('\n'));
                if trace {
                    let spans = result.tracer.spans();
                    assert!(spans.iter().any(|s| s.name == "execute"), "no engine spans");
                    assert!(spans.iter().all(|s| s.end >= s.start));
                    assert_eq!(result.tracer.to_jsonl().lines().count(), spans.len());
                }
            }
        }
        // In calibrated seconds, like every host time of the benchmark: the
        // other tests run beside this one and the machine has slow spells.
        // Only `cargo test --release` builds what `--quick` runs; with the
        // test profile's debug assertions the simulator is half as fast.
        let calibrated_s = untraced_s * stats::median(&machine);
        assert!(
            cfg!(debug_assertions) || calibrated_s < 20.0,
            "the six quick workloads took {calibrated_s:.1} calibrated seconds \
             ({untraced_s:.1} s of wall time), not under 20"
        );
    }

    #[test]
    fn result_object_has_exactly_the_four_keys() {
        let line = result_json(
            true,
            1_000,
            0,
            &[
                ("latency_ms".to_string(), 1.2034, "ms".to_string()),
                ("setup_s".to_string(), 0.8127, "s".to_string()),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
