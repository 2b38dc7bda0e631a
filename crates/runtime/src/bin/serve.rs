//! `serve` — the serving bench binary: flag parsing, a loop over the
//! scenarios of [`upanns_runtime::scenario`], and printing.
//!
//! ```text
//! cargo run --release -p upanns-runtime --bin serve -- [--queries N] [--qps R]
//!     [--repeat F] [--slo-ms S] [--hosts H] [--max-chunk C]
//!     [--engines cpu,gpu,pim-naive,upanns,multihost]
//!     [--policy fixed|adaptive|both] [--tenants SPEC] [--json PATH]
//!     [--runtime replay|threaded|twin] [--workers LIST] [--sweep-qps LIST]
//!     [--queue N] [--answers PATH] [--replicas R] [--hedge-ms B]
//!     [--fault HOST@DOWN..UP[,...]] [--mutations upsert=QPS,delete=QPS[,seed=N] | none]
//! ```
//!
//! * `--runtime replay` (the default) replays every scenario on the
//!   discrete-event [`SearchService`](upanns_serve::SearchService) — one
//!   thread, a simulated clock, byte-reproducible — and prints one table per
//!   scenario. `--json PATH` writes the rows as a record once they pass
//!   [`audit`] (else exit 1, a `record:` line naming the failed clause, and
//!   nothing written); with the default flags the record is the committed
//!   `BENCH_serving.json`, byte for byte, and the audit adds the claims that
//!   file carries.
//! * `--runtime threaded` runs the real multi-threaded pipeline
//!   ([`upanns_runtime::run_pipeline`]) against the wall clock: one row per
//!   `--workers` value per `--sweep-qps` rate, then the tenant mix, then the
//!   failover and live-mutation scenarios in logical mode. `--json PATH`
//!   writes the same record with [`threaded_row`]s; the numbers are
//!   machine-dependent (nothing commits them), the conservation invariants
//!   every row is asserted against are not.
//! * `--answers PATH` writes the answer map (one `section TAB index TAB
//!   id,...` line per query) of `--runtime replay`, or of `--runtime twin`
//!   (the pipeline in logical mode), and exits. The two files are
//!   byte-identical at every worker count; CI diffs them.
//!
//! What the scenarios are and how the three paths share them is documented
//! in [`upanns_runtime::scenario`]; the record's layout and contract in
//! [`upanns_runtime::record`]; the spec grammars in
//! [`parse_tenants`], [`parse_mutations`] and
//! [`parse_fault`]; `--help` prints the flag reference. Malformed
//! input of any kind exits 2 with an `error:` line before any work is done.

#![forbid(unsafe_code)]

use std::str::FromStr;

use annkit::workload::QueryStream;
use upanns_runtime::record::{audit, record, serving_row, threaded_row, Json};
use upanns_runtime::scenario::{
    parse_fault, parse_mutations, parse_tenants, service_config, EngineKind, Fixture, FixtureSpec,
    Policy, ReplayRow, Scenario, StalenessBucket, DATASET_N, DEFAULT_FAULT, DEFAULT_HEDGE_MS,
    DEFAULT_MUTATIONS, DEFAULT_REPLICAS, DEFAULT_TENANTS, DPUS, FAILOVER_HOSTS, FAILOVER_SHARDS,
    LIVE_REFRESH_S, NLIST, REPLAY_WORK_SCALE, THREADED_TENANTS, THREADED_WORK_SCALE,
};
use upanns_runtime::{RuntimeMode, RuntimeReport};
use upanns_serve::ServiceConfig;

#[derive(Clone, PartialEq)]
struct Args {
    queries: usize,
    qps: f64,
    repeat: f64,
    slo_ms: f64,
    hosts: usize,
    max_chunk: usize,
    engines: Vec<EngineKind>,
    /// [`Policy::Fixed`] and/or [`Policy::Adaptive`], in row order: the
    /// policies of the `single` and `multi` rows.
    policies: Vec<Policy>,
    tenants: String,
    json: Option<String>,
    runtime: RuntimeKind,
    workers: Vec<usize>,
    sweep_qps: Vec<f64>,
    queue: Option<usize>,
    answers: Option<String>,
    replicas: usize,
    fault: String,
    hedge_ms: f64,
    mutations: String,
}

/// Which front-end serves the streams (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuntimeKind {
    Replay,
    Threaded,
    Twin,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            queries: 1_000,
            qps: 12.0,
            repeat: 0.25,
            slo_ms: 6_000.0,
            hosts: 2,
            max_chunk: 32,
            engines: EngineKind::SELECTABLE.to_vec(),
            policies: vec![Policy::Fixed, Policy::Adaptive],
            tenants: DEFAULT_TENANTS.to_string(),
            json: None,
            runtime: RuntimeKind::Replay,
            workers: vec![1, 2, 4],
            sweep_qps: vec![60.0, 120.0, 240.0, 480.0, 960.0],
            queue: None,
            answers: None,
            replicas: DEFAULT_REPLICAS,
            fault: DEFAULT_FAULT.to_string(),
            hedge_ms: DEFAULT_HEDGE_MS,
            mutations: DEFAULT_MUTATIONS.to_string(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--queries N] [--qps R] [--repeat F] [--slo-ms S] [--hosts H]\n\
         \x20            [--max-chunk C] [--engines cpu,gpu,pim-naive,upanns,multihost] \n\
         \x20            [--policy fixed|adaptive|both] [--tenants SPEC] [--json PATH]\n\
         \x20            [--runtime replay|threaded|twin] [--workers LIST]\n\
         \x20            [--sweep-qps LIST] [--queue N] [--answers PATH]\n\
         \x20            [--replicas R] [--fault HOST@DOWN..UP[,...]] [--hedge-ms B]\n\
         \x20            [--mutations upsert=QPS,delete=QPS[,seed=N] | none]\n\
         \n\
         --mutations drives the live-mutation scenario (run whenever upanns is\n\
         selected): a deterministic upsert/delete stream is folded into an\n\
         epoch-stamped snapshot timeline (refresh every 4 s, background\n\
         compaction on list-size skew) that the engine serves while the\n\
         queries replay. 'none' disables it and reproduces the frozen-index\n\
         rows bytewise.\n\
         \n\
         The failover scenario (run whenever multihost is selected) serves a\n\
         replicated deployment under the --fault outage schedule: --replicas\n\
         copies of each shard (default 2; must be 1..=3 for the 3-host\n\
         deployment), hedged retries past --hedge-ms, and an SLO-feedback\n\
         autoscaler (up to 5 hosts, so --fault HOST must be 0..=4). The report\n\
         row carries the fault counters and the recovery envelope CI asserts\n\
         on.\n\
         \n\
         --runtime threaded runs the real multi-threaded pipeline (wall clock):\n\
         one row per --workers value per --sweep-qps offered rate, plus one\n\
         multi-tenant row per worker count, on a PIM-backed engine projected\n\
         to a 1.6e7-vector corpus (the replay projects to 1.25e8). --runtime\n\
         twin runs the same pipeline in deterministic logical-trace mode;\n\
         with --answers PATH it writes the answer map and exits\n\
         (byte-identical to --runtime replay --answers on the same stream).\n\
         --queue overrides the admission queue capacity.\n\
         \n\
         --max-chunk caps how many queries one dispatch may commit the engine to\n\
         in the multi-tenant and live-growth scenarios.\n\
         \n\
         --tenants grammar: NAME:key=val,...;NAME:... with keys qps (required),\n\
         queries, slo-ms, weight, repeat, mix (KxN pairs joined by '+'), e.g.\n\
         \x20  tight:qps=3,slo-ms=2500,weight=2,mix=10x8;bulk:qps=30,mix=10x4+20x8\n\
         The multi-tenant scenario replays on the upanns engine when selected."
    );
    std::process::exit(0);
}

/// Exits 2 with a clear message — the fate of every flag value the bench
/// cannot honor (silently skipping it would fake a clean bench run).
fn reject(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// `text` as a `what`: it must parse *and* pass `ok`.
fn checked<T: FromStr>(flag: &str, text: &str, what: &str, ok: impl Fn(&T) -> bool) -> T {
    match text.parse() {
        Ok(value) if ok(&value) => value,
        _ => reject(format!("{flag}: '{text}' is not {what}")),
    }
}

/// `text` as a comma list, every element a `what`.
fn list<T: FromStr>(flag: &str, text: &str, what: &str, ok: impl Fn(&T) -> bool) -> Vec<T> {
    text.split(',')
        .map(|item| checked(flag, item.trim(), what, &ok))
        .collect()
}

fn positive(x: &f64) -> bool {
    *x > 0.0 && x.is_finite()
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut tenants_overridden = false;
    let it = &mut std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut arg = || {
            it.next()
                .unwrap_or_else(|| reject(format!("{flag} needs a value")))
        };
        match flag {
            "--queries" => args.queries = checked(flag, &arg(), "an integer >= 1", |&n| n >= 1),
            "--qps" => args.qps = checked(flag, &arg(), "a positive number", positive),
            "--repeat" => {
                args.repeat = checked(flag, &arg(), "a fraction in [0, 1]", |x| {
                    (0.0..=1.0).contains(x)
                });
            }
            "--slo-ms" => args.slo_ms = checked(flag, &arg(), "a positive number", positive),
            "--max-chunk" => args.max_chunk = checked(flag, &arg(), "an integer >= 1", |&c| c >= 1),
            // Each host gets DPUS / hosts DPUs and a slice of the one
            // trained index (its vectors, not its own IVF lists or training).
            "--hosts" => {
                args.hosts = checked(flag, &arg(), "a host count in 1..=16", |h| {
                    (1..=16).contains(h)
                });
            }
            "--engines" => {
                let names = arg();
                let names = names
                    .split(',')
                    .map(str::trim)
                    .filter(|name| !name.is_empty());
                let kinds = names.map(|name| EngineKind::parse(name).unwrap_or_else(|e| reject(e)));
                args.engines = kinds.collect();
                if args.engines.is_empty() {
                    reject("--engines: empty engine list");
                }
            }
            "--policy" => {
                args.policies = match arg().as_str() {
                    "fixed" => vec![Policy::Fixed],
                    "adaptive" => vec![Policy::Adaptive],
                    "both" => vec![Policy::Fixed, Policy::Adaptive],
                    other => reject(format!(
                        "unknown policy '{other}' (known policies: fixed, adaptive, both)"
                    )),
                };
            }
            "--tenants" => {
                args.tenants = arg();
                tenants_overridden = true;
            }
            "--runtime" => {
                args.runtime = match arg().as_str() {
                    "replay" => RuntimeKind::Replay,
                    "threaded" => RuntimeKind::Threaded,
                    "twin" => RuntimeKind::Twin,
                    other => reject(format!(
                        "unknown runtime '{other}' (known runtimes: replay, threaded, twin)"
                    )),
                };
            }
            "--workers" => {
                args.workers = list(flag, &arg(), "a worker count in 1..=32", |w| {
                    (1..=32).contains(w)
                });
            }
            "--sweep-qps" => args.sweep_qps = list(flag, &arg(), "a positive rate", positive),
            "--queue" => args.queue = Some(checked(flag, &arg(), "an integer >= 1", |&n| n >= 1)),
            // More replicas than hosts would co-locate two copies of a shard
            // on one failure domain.
            "--replicas" => {
                let what = format!("a replica factor in 1..={FAILOVER_HOSTS} (its hosts)");
                args.replicas = checked(flag, &arg(), &what, |r| (1..=FAILOVER_HOSTS).contains(r));
            }
            "--hedge-ms" => args.hedge_ms = checked(flag, &arg(), "a positive number", positive),
            "--fault" => args.fault = arg(),
            "--mutations" => args.mutations = arg(),
            "--answers" => args.answers = Some(arg()),
            "--json" => args.json = Some(arg()),
            "--help" | "-h" => usage(),
            other => reject(format!("unknown flag {other} (try --help)")),
        }
    }
    // The threaded default tenant mix is rescaled for wall-clock runs; an
    // explicit --tenants always wins.
    if args.runtime == RuntimeKind::Threaded && !tenants_overridden {
        args.tenants = THREADED_TENANTS.to_string();
    }
    args
}

impl Args {
    /// The checked form of the flags: each spec grammar is parsed here,
    /// once, so a malformed one exits 2 before any fixture is built.
    fn fixture_spec(&self) -> FixtureSpec {
        let bad = |flag: &str, err: String| -> ! { reject(format!("{flag}: {err}")) };
        FixtureSpec {
            queries: self.queries,
            qps: self.qps,
            repeat: self.repeat,
            slo_s: self.slo_ms / 1e3,
            hosts: self.hosts,
            engines: self.engines.clone(),
            tenants: parse_tenants(&self.tenants).unwrap_or_else(|e| bad("--tenants", e)),
            mutations: parse_mutations(&self.mutations).unwrap_or_else(|e| bad("--mutations", e)),
            // Only the replay rows serve the growth scenario.
            growth: self.runtime == RuntimeKind::Replay && self.answers.is_none(),
            replicas: self.replicas,
            faults: parse_fault(&self.fault).unwrap_or_else(|e| bad("--fault", e)),
            hedge_s: self.hedge_ms / 1e3,
            work_scale: self.work_scale(),
        }
    }

    /// The fixture's work scale: the wall clock projects less than the
    /// replay clock (see [`THREADED_WORK_SCALE`]).
    fn work_scale(&self) -> f64 {
        if self.runtime == RuntimeKind::Threaded {
            THREADED_WORK_SCALE
        } else {
            REPLAY_WORK_SCALE
        }
    }

    /// Whether the flags that shape the replay scenarios are the defaults —
    /// the ones `BENCH_serving.json` is generated with. Output paths and the
    /// threaded-only knobs do not shape a replay row.
    fn shapes_committed_scenarios(&self) -> bool {
        let defaults = Args::default();
        let shaping = Args {
            json: None,
            workers: defaults.workers.clone(),
            sweep_qps: defaults.sweep_qps.clone(),
            ..self.clone()
        };
        shaping == defaults
    }

    /// The record's `config` block.
    fn config_json(&self, service: &ServiceConfig) -> Json {
        use Json::{Int, Num, Str};
        Json::Object(vec![
            ("dataset_n", Int(DATASET_N as u64)),
            ("nlist", Int(NLIST as u64)),
            ("dpus", Int(DPUS as u64)),
            ("work_scale", Num(self.work_scale())),
            ("num_queries", Int(self.queries as u64)),
            ("offered_qps", Num(self.qps)),
            ("repeat_fraction", Num(self.repeat)),
            ("slo_p99_ms", Num(self.slo_ms)),
            ("hosts", Int(self.hosts as u64)),
            ("max_chunk", Int(self.max_chunk as u64)),
            ("queue_capacity", Int(service.queue_capacity as u64)),
            ("fixed_max_batch", Int(service.batcher.max_batch as u64)),
            ("fixed_max_delay_ms", Num(service.batcher.max_delay_s * 1e3)),
            ("cache_capacity", Int(service.cache_capacity as u64)),
            ("replicas", Int(self.replicas as u64)),
            ("fault", Str(self.fault.clone())),
            ("hedge_ms", Num(self.hedge_ms)),
            ("mutations", Str(self.mutations.clone())),
            ("live_refresh_s", Num(LIVE_REFRESH_S)),
            ("tenants", Str(self.tenants.clone())),
        ])
    }
}

/// Writes an output file; a failure is reported after the run, as exit 1.
fn write_file(path: &str, contents: String) {
    if let Err(err) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {err}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

/// Writes a record — unless it failed its contract: then nothing is written
/// and the run exits 1 with a `record:` line naming the clause.
fn write_record(path: &str, record: Result<String, String>) {
    match record {
        Ok(text) => write_file(path, text),
        Err(clause) => {
            eprintln!("record: {clause}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    let spec = args.fixture_spec();
    eprintln!(
        "building fixture: n={DATASET_N}, nlist={NLIST}, dpus={DPUS}, \
         stream of {} queries at {} qps (repeat fraction {}, p99 SLO {} ms)",
        args.queries, args.qps, args.repeat, args.slo_ms
    );
    let fixture = Fixture::build(spec);
    if let Some(live) = &fixture.live {
        eprintln!(
            "live-mutation plan: {} events -> {} snapshots, {} compaction(s), final epoch {}",
            live.events.len(),
            live.plan.timeline.entries().len(),
            live.plan.compactions.len(),
            live.plan.final_epoch
        );
    } else if fixture.spec.mutations.is_some() {
        eprintln!("note: --mutations set but upanns is not selected; skipping live rows");
    }
    let base = service_config(args.queue);
    match args.runtime {
        RuntimeKind::Threaded => threaded_rows(&args, &fixture, base),
        RuntimeKind::Replay if args.answers.is_none() => replay_rows(&args, &fixture, base),
        RuntimeKind::Replay | RuntimeKind::Twin => answer_maps(&args, &fixture, base),
    }
}

/// The answer maps: `single`, `multi`, `failover` and `live-mutation` under
/// the fixed policy, through the replay or (twin) the logical pipeline with
/// the first `--workers` count. Lines are `section TAB index TAB id,id,...`
/// — only neighbor ids: the twin contract is about *which* answers come
/// back, and ids are byte-stable across platforms where float formatting
/// might not be.
fn answer_maps(args: &Args, fixture: &Fixture, base: ServiceConfig) {
    // The answer map must be total: widen the waiting room past every
    // stream so neither side of the twin diff sheds anything.
    let streams = [
        &fixture.stream,
        &fixture.tenant_stream,
        &fixture.failover_stream,
    ];
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    let base = ServiceConfig {
        queue_capacity: base.queue_capacity.max(longest),
        ..base
    };
    let scenarios = fixture.scenarios(base, args.max_chunk);
    let sections = [
        ("single", Some(scenarios.single)),
        ("multi", Some(scenarios.multi)),
        ("failover", scenarios.failover),
        ("live", scenarios.live),
    ];
    let twin = args.runtime == RuntimeKind::Twin;
    let mut out = String::new();
    for (section, scenario) in sections {
        let Some(scenario) = scenario else { continue };
        eprintln!("answering {scenario} ...");
        let results = if twin {
            let (workers, logical) = (args.workers[0], RuntimeMode::Logical);
            let report = fixture.pipeline(&scenario, Policy::Fixed, workers, logical);
            assert_eq!(report.shed, 0, "twin runs shed nothing");
            report.service.results
        } else {
            let engine = fixture.engine(scenario.engine);
            fixture.replay(&scenario, Policy::Fixed, engine).0.results
        };
        for (i, neighbors) in results.iter().enumerate() {
            let ids: Vec<String> = neighbors.iter().map(|n| n.id.to_string()).collect();
            out.push_str(&format!("{section}\t{i}\t{}\n", ids.join(",")));
        }
    }
    match &args.answers {
        Some(path) => write_file(path, out),
        None => eprintln!(
            "twin run complete ({} answers, all conserved); use --answers PATH to write the map",
            out.lines().count()
        ),
    }
}

/// The threaded rows: per worker count, the wall-clock single-tenant sweep,
/// the wall-clock tenant mix under the adaptive policy, then failover
/// and live-mutation in deterministic logical mode — fault schedules and
/// epoch visibility live on the simulated clock, and those rows' point is
/// conservation under faults and mutation, not wall time.
fn threaded_rows(args: &Args, fixture: &Fixture, base: ServiceConfig) {
    let scenarios = fixture.scenarios(base, args.max_chunk);
    // Bound each sweep row's real duration to roughly six wall-clock seconds
    // of offered stream: enough arrivals to smooth the Poisson noise, capped
    // by --queries.
    let sweep_stream =
        |&qps: &f64| fixture.single_stream(args.queries.min(((qps * 6.0) as usize).max(240)), qps);
    let sweep: Vec<QueryStream> = args.sweep_qps.iter().map(sweep_stream).collect();
    let mut plan: Vec<(Scenario, Policy, RuntimeMode)> = Vec::new();
    for (stream, &offered_qps) in sweep.iter().zip(&args.sweep_qps) {
        let scenario = Scenario {
            stream,
            offered_qps,
            ..scenarios.single
        };
        plan.push((scenario, Policy::Fixed, RuntimeMode::Wall));
    }
    plan.push((scenarios.multi, Policy::Adaptive, RuntimeMode::Wall));
    for scenario in [scenarios.failover, scenarios.live].into_iter().flatten() {
        plan.push((scenario, Policy::Fixed, RuntimeMode::Logical));
    }

    let mut rows: Vec<(&Scenario, RuntimeReport)> = Vec::new();
    for &workers in &args.workers {
        for (scenario, policy, mode) in &plan {
            eprintln!(
                "threaded ({}): {scenario}, {workers} worker(s) ...",
                mode.label()
            );
            let report = fixture.pipeline(scenario, *policy, workers, *mode);
            rows.push((scenario, report));
        }
    }

    let header = "| engine | workload | mode | workers | offered QPS | sustained QPS | p50 (ms) | p99 (ms) | completed | shed | lost | dup | cache hit |";
    let table = rows.iter().map(|(scenario, r)| {
        format!(
            "| {} | {} | {} | {} | {:.1} | {:.1} | {:.3} | {:.3} | {} | {} | {} | {} | {:.0}% |",
            r.engine,
            scenario.workload,
            r.mode,
            r.workers,
            scenario.offered_qps,
            r.sustained_qps(),
            r.p50() * 1e3,
            r.p99() * 1e3,
            r.completed,
            r.shed,
            r.lost,
            r.duplicated,
            r.cache_hit_rate() * 100.0,
        )
    });
    print_table(None, header, table.collect());
    if let Some(path) = &args.json {
        let rows = rows
            .iter()
            .map(|(s, r)| threaded_row(r, s.workload, s.offered_qps))
            .collect();
        write_record(path, record(args.config_json(&base), rows));
    }
}

/// The replay rows: `single` on every selected engine and (on UpANNS) the
/// tenant mix, each under `--policy`, then failover and the two live
/// scenarios. The last three always run adaptive: the fixed window
/// collapses the PIM engines at this offered load, and a collapsed row's
/// envelope or p99 split would measure queueing, not the outage or the
/// compaction.
fn replay_rows(args: &Args, fixture: &Fixture, base: ServiceConfig) {
    let scenarios = fixture.scenarios(base, args.max_chunk);
    let mut plan: Vec<(Scenario, Vec<Policy>)> = EngineKind::SELECTABLE
        .into_iter()
        .filter(|kind| args.engines.contains(kind))
        .map(|engine| Scenario {
            engine,
            ..scenarios.single
        })
        .map(|scenario| (scenario, args.policies.clone()))
        .collect();
    if args.engines.contains(&EngineKind::UpAnns) {
        plan.push((scenarios.multi, args.policies.clone()));
    }
    for scenario in [scenarios.failover, scenarios.live, scenarios.growth]
        .into_iter()
        .flatten()
    {
        plan.push((scenario, vec![Policy::Adaptive]));
    }

    let mut rows: Vec<ReplayRow> = Vec::new();
    for (scenario, policies) in &plan {
        eprintln!("replaying {scenario} ...");
        rows.extend(fixture.replay_rows(scenario, policies));
    }
    print_replay_tables(args, &rows);
    if let Some(path) = &args.json {
        let config = args.config_json(&base);
        let written = audit(&rows, args.shapes_committed_scenarios())
            .and_then(|()| record(config, rows.iter().map(serving_row).collect()));
        write_record(path, written);
    }
}

/// Prints a markdown table — after a blank line and its title, for the
/// titled ones — unless it has no rows.
fn print_table(title: Option<String>, header: &str, rows: Vec<String>) {
    if rows.is_empty() {
        return;
    }
    if let Some(title) = title {
        println!("\n{title}");
    }
    println!(
        "{header}\n{}|",
        "|---".repeat(header.matches(" | ").count() + 1)
    );
    for row in rows {
        println!("{row}");
    }
}

/// The stdout tables of the replay rows, one per scenario that ran.
fn print_replay_tables(args: &Args, rows: &[ReplayRow]) {
    let of = |workload: &'static str| rows.iter().filter(move |row| row.workload == workload);
    let header = "| engine | policy | sustained QPS | p50 (ms) | p99 (ms) | SLO miss | completed | shed | batches | chunks | mean batch | final window (ms) |";
    let singles = of("single").map(|row| {
        let r = &row.report;
        format!(
            "| {} | {} | {:.1} | {:.3} | {:.3} | {:.1}% | {} | {} | {} | {} | {:.1} | {:.1} |",
            r.engine,
            r.policy,
            r.sustained_qps(),
            r.p50() * 1e3,
            r.p99() * 1e3,
            r.slo_miss_fraction() * 100.0,
            r.completed,
            r.shed,
            r.batches(),
            r.dispatched_chunks,
            r.mean_batch_size(),
            r.final_batcher.max_delay_s * 1e3,
        )
    });
    print_table(None, header, singles.collect());

    let title = format!("Multi-tenant scenario (upanns): {}", args.tenants);
    let header = "| policy | tenant | weight | SLO (ms) | completed | shed | p50 (ms) | p99 (ms) | SLO miss | meets | final window (ms) |";
    let tenants = of("multi").flat_map(|row| row.report.tenants.iter().map(|t| (&row.report, t)));
    let tenants = tenants.map(|(r, t)| {
        format!(
            "| {} | {} | {} | {} | {} | {} | {:.3} | {:.3} | {:.1}% | {} | {:.1} |",
            r.policy,
            t.name,
            t.weight,
            t.slo_p99_s
                .map_or_else(|| "-".to_string(), |s| format!("{:.0}", s * 1e3)),
            t.completed,
            t.shed,
            t.p50() * 1e3,
            t.p99() * 1e3,
            t.slo_miss_fraction() * 100.0,
            if t.meets_slo() { "yes" } else { "NO" },
            t.final_batcher.max_delay_s * 1e3,
        )
    });
    print_table(Some(title), header, tenants.collect());

    let title = format!(
        "Failover scenario: {FAILOVER_SHARDS} shards / {FAILOVER_HOSTS} hosts, r={}, \
         fault {}, hedge {} ms",
        args.replicas, args.fault, args.hedge_ms
    );
    let header = "| policy | sustained QPS | p99 (ms) | SLO miss | degraded | hedged | redisp | scale events | migration (s) | baseline | max dip | recovery (s) |";
    let failovers = of("failover").map(|row| {
        let r = &row.report;
        let envelope = row.envelope.as_ref().map_or_else(
            || "- | - | -".to_string(),
            |e| {
                let recovery = if e.recovered {
                    format!("{:.1}", e.recovery_s)
                } else {
                    "never".to_string()
                };
                format!(
                    "{:.3} | {:.3} | {recovery}",
                    e.baseline_attainment, e.max_dip
                )
            },
        );
        format!(
            "| {} | {:.1} | {:.3} | {:.1}% | {} | {} | {} | {} | {:.3} | {envelope} |",
            r.policy,
            r.sustained_qps(),
            r.p99() * 1e3,
            r.slo_miss_fraction() * 100.0,
            r.degraded,
            r.hedged,
            r.redispatched,
            r.scale_events,
            r.migration_s,
        )
    });
    print_table(Some(title), header, failovers.collect());

    let title = format!(
        "Live-mutation scenario (upanns): {} (snapshot refresh every {LIVE_REFRESH_S} s)",
        args.mutations
    );
    let header = "| workload | events | epochs | compactions | invalidated | stale | in-window | p99 steady (ms) | p99 compaction (ms) | recall lag=0 | lag=1-10 | lag=11-100 | lag=101+ |";
    let audited = rows
        .iter()
        .filter_map(|row| Some((row, row.live.as_ref()?)));
    let audited = audited.map(|(row, s)| {
        let recall = |b: &StalenessBucket| match b.queries {
            0 => "-".to_string(),
            n => format!("{:.3} ({n})", b.mean_recall),
        };
        format!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.3} | {:.3} | {} |",
            row.workload,
            s.mutation_events,
            s.final_epoch,
            s.compactions,
            row.report.cache_invalidated,
            s.stale_served,
            s.answered_in_window,
            s.p99_steady_ms,
            s.p99_compaction_ms,
            s.buckets.iter().map(recall).collect::<Vec<_>>().join(" | "),
        )
    });
    print_table(Some(title), header, audited.collect());
}
