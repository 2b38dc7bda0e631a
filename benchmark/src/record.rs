//! What one workload run collects and prints: metric values, correctness
//! problems, and the attempted/failed operation counts.

use crate::clock;
use crate::names::{self, Workload};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Stage names → host seconds, one entry per set-up repetition.
pub type SetupTimes = BTreeMap<&'static str, Vec<f64>>;

/// Everything a workload needs to know about how it was invoked, plus the
/// places it reports to.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured phase runs, in host seconds.
    pub seconds: f64,
    /// The traced run: per-layer metrics, spans, and the extra legs that
    /// only per-layer metrics need.
    pub trace: bool,
    /// Smoke-test mode: tenth-size streams, one set-up, no sample-size
    /// expectations.
    pub quick: bool,
    pub tracer: Tracer,
    values: BTreeMap<&'static str, (f64, usize)>,
    problems: Vec<String>,
    notes: Vec<String>,
    /// The speed samples taken so far (see [`Ctx::calibrate`]), and those
    /// of the current phase.
    calibration: Vec<f64>,
    phase_calibration: Vec<f64>,
    /// When the latest speed sample was taken, in host seconds.
    calibrated_at: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// One measured piece of work: its raw host and CPU seconds, and the
/// machine's speed around it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Host seconds, as read.
    pub host_s: f64,
    /// CPU seconds (user + sys, all threads), as read; 0 without `/proc`.
    pub cpu_s: f64,
    /// The machine's speed against the reference state: the mean of the
    /// speed samples taken right before and right after the work.
    pub speed: f64,
}

impl Measured {
    /// Host seconds the work would have taken on the reference machine.
    pub fn calibrated_host_s(&self) -> f64 {
        self.host_s * self.speed
    }

    /// CPU seconds the work would have taken on the reference machine.
    pub fn calibrated_cpu_s(&self) -> f64 {
        self.cpu_s * self.speed
    }
}

/// The readings of a measured loop, one per iteration.
#[derive(Debug, Default, Clone)]
pub struct LoopStats {
    pub iterations: Vec<Measured>,
}

impl LoopStats {
    pub fn len(&self) -> usize {
        self.iterations.len()
    }

    /// Calibrated host seconds of each iteration.
    pub fn calibrated_host_s(&self) -> Vec<f64> {
        self.iterations
            .iter()
            .map(Measured::calibrated_host_s)
            .collect()
    }

    /// Median over the iterations of their calibrated host seconds. Each
    /// iteration is calibrated by the speed samples around itself, so a
    /// slow spell that covers half the loop moves neither half's readings.
    pub fn median_host_s(&self) -> f64 {
        stats::median(&self.calibrated_host_s())
    }

    /// Calibrated CPU seconds summed over the iterations.
    pub fn cpu_s(&self) -> f64 {
        self.iterations.iter().map(Measured::calibrated_cpu_s).sum()
    }
}

impl Ctx {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            quick,
            tracer: Tracer::new(trace),
            values: BTreeMap::new(),
            problems: Vec::new(),
            notes: Vec::new(),
            calibration: Vec::new(),
            phase_calibration: Vec::new(),
            calibrated_at: f64::NEG_INFINITY,
            attempted: 0,
            failed: 0,
        }
    }

    /// A stream length: the full size, or a tenth of it in quick mode.
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / 10).max(20)
        } else {
            n
        }
    }

    /// Records a metric value with the number of samples behind it. A
    /// host-clock time or rate is taken as read from the clock and becomes a
    /// calibrated one here: what it would have read with the machine in its
    /// reference state, judged by the speed samples of the phase it was
    /// measured in.
    pub fn emit(&mut self, name: &'static str, value: f64, samples: usize) {
        let speed = self.phase_speed();
        let value = match names::find(name) {
            Some((def, _)) if def.clock == names::Clock::Host => match def.unit {
                "s" | "ms" | "us" | "ns" => value * speed,
                "1/s" => value / speed,
                _ => value,
            },
            _ => value,
        };
        self.emit_calibrated(name, value, samples);
    }

    /// Records a value that needs no calibration or has had its own: the
    /// readings of [`Ctx::measure`], each calibrated by the speed samples
    /// around itself.
    pub fn emit_calibrated(&mut self, name: &'static str, value: f64, samples: usize) {
        match names::find(name) {
            None => self.problems.push(format!("emitted unknown metric {name}")),
            Some((def, _)) if !def.applies_to(self.workload) => self.problems.push(format!(
                "{name} is not a metric of {}",
                self.workload.name()
            )),
            Some(_) if !value.is_finite() => {
                self.problems
                    .push(format!("{name} is not finite ({value})"));
            }
            Some(_) => {
                self.values.insert(name, (value, samples));
            }
        }
    }

    /// A correctness check: a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Samples the machine's speed now (one calibration burst). Called
    /// between measured pieces of work, never inside one.
    pub fn calibrate(&mut self) -> f64 {
        let speed = clock::calibration_burst();
        self.calibration.push(speed);
        self.phase_calibration.push(speed);
        self.calibrated_at = clock::now_s();
        speed
    }

    /// Runs `f` as one measured piece of work between two speed samples
    /// (the one before is the latest sample when that is fresh, as it is
    /// inside a loop of back-to-back measurements).
    pub fn measure<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, Measured) {
        const FRESH_S: f64 = 2e-3;
        let before = match self.calibration.last() {
            Some(&speed) if clock::now_s() - self.calibrated_at < FRESH_S => speed,
            _ => self.calibrate(),
        };
        let cpu0 = clock::cpu_s();
        let (out, host_s) = clock::timed(|| f(self));
        let cpu_s = match (cpu0, clock::cpu_s()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        let after = self.calibrate();
        let measured = Measured {
            host_s,
            cpu_s,
            speed: (before + after) / 2.0,
        };
        (out, measured)
    }

    /// Starts a new phase (set-up, the measured phase, the direct timings):
    /// what is emitted from here on is calibrated by the bursts from here
    /// on. The machine's speed wanders within a run, so a phase is judged
    /// by its own bursts, not by the run's.
    pub fn begin_phase(&mut self) {
        self.phase_calibration.clear();
        self.calibrate();
    }

    /// Runs an untimed-phase measurement (a direct timing, a reference
    /// request) as a phase of its own, a burst before and one after, so
    /// that what is emitted from it next is calibrated by those two.
    pub fn in_own_phase<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.begin_phase();
        let out = f();
        self.calibrate();
        out
    }

    /// The machine's speed during the current phase against the reference
    /// state: the median of the phase's speed samples.
    fn phase_speed(&self) -> f64 {
        if self.phase_calibration.is_empty() {
            1.0
        } else {
            stats::median(&self.phase_calibration)
        }
    }

    /// Something the reader should know that is not the program's fault
    /// (a late load generator, a leg that did not saturate): printed as a
    /// `workload NOTE ...` line, and the run stays correct.
    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    /// Reads `peak_rss_mb` now, unless it was read before:
    /// [`Ctx::measure_loop`] does when its loop has done all its work once,
    /// so the high-water mark is that of set-up and serving, not of the
    /// reference requests and audits the harness runs afterwards.
    pub fn mark_peak_rss(&mut self) {
        if !self.values.contains_key("peak_rss_mb") {
            if let Some(mb) = clock::peak_rss_mb() {
                self.emit("peak_rss_mb", mb, 1);
            }
        }
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Runs the workload's set-up `repeats` times (once in quick and traced
    /// runs), keeps the last result, and emits `setup_s` and the per-stage
    /// set-up metrics as medians over the repetitions, each repetition
    /// calibrated by the speed samples around itself. The count is fixed
    /// per workload rather than fitted to the time left: how often a
    /// fixture was built shows in the peak resident set.
    pub fn setup<S>(&mut self, repeats: usize, mut build: impl FnMut(&mut SetupTimes) -> S) -> S {
        let repeats = if self.quick || self.trace { 1 } else { repeats };
        let mut times = SetupTimes::new();
        let mut runs = Vec::with_capacity(repeats);
        let mut state = None;
        for _ in 0..repeats {
            drop(state.take());
            let (s, measured) = self.measure(|ctx| {
                let span = ctx.tracer.begin("setup", None);
                let s = build(&mut times);
                ctx.tracer.end(span, &[]);
                s
            });
            runs.push(measured);
            state = Some(s);
        }
        let totals: Vec<f64> = runs.iter().map(Measured::calibrated_host_s).collect();
        self.emit_calibrated("setup_s", stats::median(&totals), totals.len());
        // Every repetition times every stage once, so a stage's i-th sample
        // belongs to the i-th repetition.
        for (name, samples) in times {
            let calibrated: Vec<f64> = samples
                .iter()
                .zip(&runs)
                .map(|(s, m)| s * m.speed)
                .collect();
            self.emit_calibrated(name, stats::median(&calibrated), calibrated.len());
        }
        self.begin_phase();
        state.expect("at least one set-up ran")
    }

    /// Repeats `step` until `budget_s` host seconds have passed and at least
    /// `min_iters` iterations ran. A step runs its measured part through
    /// [`Ctx::measure`] and returns the reading; whatever else it does
    /// (building a service, taking it apart) spends the budget but is not
    /// measured. The peak resident set is read after `min_iters`
    /// iterations, when the loop has done each distinct piece of its work
    /// once, so that the reading does not depend on how many more
    /// iterations the machine fits into the budget.
    pub fn measure_loop(
        &mut self,
        budget_s: f64,
        min_iters: usize,
        mut step: impl FnMut(&mut Self) -> Measured,
    ) -> LoopStats {
        let started = clock::now_s();
        let mut stats = LoopStats::default();
        while stats.len() < min_iters || clock::now_s() - started < budget_s {
            stats.iterations.push(step(self));
            if stats.len() == min_iters {
                self.mark_peak_rss();
            }
        }
        stats
    }

    /// Closes the run: fills in what the catalogue says this workload does
    /// not measure, flags what it should have measured and did not, prints
    /// the human-readable lines and returns the result.
    pub fn finish(mut self) -> RunResult {
        self.mark_peak_rss();
        let failed_fraction = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.emit("failed_fraction", failed_fraction, self.attempted as usize);
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".to_string());
        }

        let speed = if self.calibration.is_empty() {
            1.0
        } else {
            stats::median(&self.calibration)
        };
        self.emit("benchmark.host_speed", speed, self.calibration.len());

        let selected = if self.trace {
            names::PER_LAYER
        } else {
            names::END_TO_END
        };
        let mut metrics = Vec::with_capacity(selected.len());
        for def in selected {
            let value = match self.values.get(def.name) {
                Some(&(v, _)) => v,
                None if def.applies_to(self.workload) => {
                    self.problems.push(format!("{} was not measured", def.name));
                    0.0
                }
                None => 0.0,
            };
            if !self.trace && value == 0.0 {
                self.problems
                    .push(format!("end-to-end metric {} is 0", def.name));
            }
            metrics.push((def.name, value, def.unit));
        }

        let mut text = String::new();
        for (name, &(value, samples)) in &self.values {
            let (def, _) = names::find(name).expect("emit only stores catalogued names");
            let _ = writeln!(
                text,
                "{} {} {} {} {} {}",
                self.workload.name(),
                name,
                value,
                def.unit,
                def.clock.label(),
                samples
            );
        }
        for note in &self.notes {
            let _ = writeln!(text, "{} NOTE {}", self.workload.name(), note);
        }
        for p in &self.problems {
            let _ = writeln!(text, "{} PROBLEM {}", self.workload.name(), p);
        }
        RunResult {
            correct: self.problems.is_empty(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics: metrics
                .into_iter()
                .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
                .collect(),
            text,
            tracer: self.tracer,
        }
    }
}

/// The outcome of one workload run.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every metric of the selected set.
    pub metrics: Vec<(String, f64, String)>,
    /// The `workload metric value unit clock samples` lines, then one
    /// `workload PROBLEM ...` line per failed check.
    pub text: String,
    pub tracer: Tracer,
}

impl RunResult {
    /// The driver's result object, on one line.
    pub fn json_line(&self) -> String {
        result_json(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// One JSON object with exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
