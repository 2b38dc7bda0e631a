//! The thread driver of the serving core: one control thread, N engine
//! workers.
//!
//! ```text
//!                         ┌──────────────── control thread ────────────────┐
//!   stream arrivals ────▶ │  ServingCore (admission queue, result cache,   │
//!   (paced by the wall    │  batch former, chunk queue, policy, ledger)    │
//!    clock, or taken at   │  tick → close_due → arrive → pop_chunk         │
//!    their timestamps)    └───────┬─────────────────────────────▲──────────┘
//!                     one cap-1   │ QueuedChunk            Done │  one shared
//!                     channel per ▼                             │  channel
//!                     worker   worker 0..N: request_for → execute → (sleep out
//!                              the modeled occupancy) → the chunk and response back
//! ```
//!
//! Every serving semantic — admit, batch, dispatch order, cache, policy
//! feedback, the report — lives in [`ServingCore`], which the control
//! thread owns outright and steps exactly as
//! [`SearchService::replay`](upanns_serve::SearchService::replay) steps it;
//! this file adds only what threads need. There is no shared mutable state,
//! no lock, and no `unsafe`: the control thread waits for
//! `min(next arrival, next window deadline)` with
//! [`recv_timeout`](Receiver::recv_timeout) on the single worker→control
//! channel, so a completion, an arrival and a closing window are all the same
//! wake-up. A worker is handed a chunk only while it is idle (its cap-1
//! channel is empty and it is blocked in `recv`), so no send ever stalls the
//! control loop, and the workers' sends are unbounded, so no cycle of full
//! channels exists to deadlock on. Backpressure is the core's own: admitted
//! queries hold their seats in the admission queue until their chunk
//! finishes, and arrivals beyond its capacity are shed.
//!
//! # The two clocks
//!
//! [`RuntimeMode::Wall`] runs against real time: the control thread paces
//! arrivals and window deadlines with its `recv_timeout` waits, stamps each
//! arrival with the clock reading it was actually processed at, and each
//! worker *emulates its engine's modeled occupancy* — after computing a
//! chunk's answers it sleeps until `start + response.seconds` has elapsed,
//! so one worker thread behaves like one modeled PIM device and adding
//! workers buys genuine pipeline concurrency against emulated hardware
//! (this is what makes 1→4 worker scaling measurable on a single host
//! core: the bottleneck is the emulated device, not the host CPU).
//!
//! [`RuntimeMode::Logical`] is the deterministic twin: the clock *is* the
//! stream's arrival timestamps, so no thread ever sleeps or waits for a
//! timer; a chunk occupies its engine over `[closed_at, closed_at +
//! response.seconds]`; and the admission queue is widened to the stream
//! length so nothing is shed.
//!
//! # The twin contract
//!
//! The replay and this pipeline run the **same core**, so admission,
//! batching, dispatch order, cache semantics, feedback and reporting agree
//! by construction, not by a test. What still differs between a logical run
//! and the replay is *when* completions reach the core: here a response
//! arrives whenever its worker thread gets to it, so which repeats hit the
//! cache, and hence batch shapes, depend on thread interleaving. Answers in
//! this workspace are pure functions of `(query vector, k, nprobe, index
//! snapshot at the query's arrival)`, so none of that may change *what* is
//! answered: logical mode produces, for every stream index, byte-for-byte
//! the same neighbor ids as the replay on the same stream with a shed-proof
//! queue — regardless of worker count. That is what the twin proptests and
//! the CI byte-diff (1, 2 and 4 workers) check: thread interleaving and
//! cache timing, nothing else. Latencies, batch counts and cache hit rates
//! are *not* part of the contract; only the answer map is.
//!
//! # Clean shutdown, and unclean
//!
//! The control loop ends when nothing can happen any more: the stream is
//! exhausted, no window is open, the chunk queue is empty and every worker
//! is idle. Trailing windows close at their own deadlines (at `+∞` on the
//! logical clock), exactly as in the replay. Every completion has by then
//! been accounted on the one thread that owns the ledger, so the
//! conservation check (`completed + shed == offered`, zero lost, zero
//! duplicated) is exact, not racy. Returning drops the chunk senders; each
//! worker's `recv` fails and it exits; the scope joins them.
//!
//! A panic inside an engine is caught in its worker and shipped to the
//! control thread as that chunk's outcome; the control thread stops at once
//! and [`run_pipeline`] resumes the panic on the caller's thread, as it does
//! for a panic of the control thread itself (`options_of`, the policy). The
//! other workers finish the chunk they hold and exit as above — nothing is
//! left waiting on a thread that is gone.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_types,
    reason = "`WallClock` below is the one wall clock the workspace reads"
)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::thread;
use std::time::{Duration, Instant};

use annkit::workload::QueryStream;
use baselines::engine::{AnnEngine, QueryOptions, SearchResponse};
use upanns_serve::controller::BatchPolicy;
use upanns_serve::core::{request_for, ServingCore};
use upanns_serve::dispatch::QueuedChunk;
use upanns_serve::service::ServiceConfig;

use crate::report::RuntimeReport;

/// Which clock drives the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeMode {
    /// Real time: paced arrivals, `recv_timeout` batching windows, and
    /// workers that emulate their engine's modeled occupancy by sleeping.
    Wall,
    /// The deterministic twin: the stream's arrival timestamps drive the
    /// batcher exactly as the replay clock would, nothing sleeps, nothing
    /// is shed, and the answer map equals the replay's byte for byte.
    Logical,
}

impl RuntimeMode {
    /// The mode's report label.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeMode::Wall => "wall",
            RuntimeMode::Logical => "logical",
        }
    }
}

/// Configuration for one pipeline run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The front-end knobs, shared verbatim with the replay
    /// ([`ServiceConfig`]) so a threaded run and its twin are configured by
    /// the same struct.
    pub service: ServiceConfig,
    /// Which clock drives the run.
    pub mode: RuntimeMode,
    /// The live-index `(activation, epoch)` schedule
    /// ([`SnapshotTimeline::epoch_schedule`]) driving result-cache
    /// invalidation, shared with the replay via
    /// [`SearchService::with_live_index`]. Empty (the default) for a frozen
    /// index — every entry sits at epoch 0 and nothing ever invalidates.
    /// The engines themselves are the caller's: install the same timeline
    /// into each worker engine before handing them to [`run_pipeline`].
    ///
    /// [`SnapshotTimeline::epoch_schedule`]: annkit::mutation::SnapshotTimeline::epoch_schedule
    /// [`SearchService::with_live_index`]: upanns_serve::SearchService::with_live_index
    pub epoch_schedule: Vec<(f64, u64)>,
}

impl RuntimeConfig {
    /// Wall-clock mode over the given service configuration.
    pub fn wall(service: ServiceConfig) -> Self {
        Self {
            service,
            mode: RuntimeMode::Wall,
            epoch_schedule: Vec::new(),
        }
    }

    /// Deterministic-twin mode over the given service configuration.
    pub fn logical(service: ServiceConfig) -> Self {
        Self {
            service,
            mode: RuntimeMode::Logical,
            epoch_schedule: Vec::new(),
        }
    }
}

/// The wall clock every thread shares: seconds since pipeline start, so
/// wall-mode timestamps are directly comparable with the replay's
/// stream-relative seconds.
#[derive(Clone, Copy)]
struct WallClock(Instant);

impl WallClock {
    fn start() -> Self {
        Self(Instant::now())
    }

    fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// How long until `t` seconds since pipeline start (zero if already
    /// past).
    fn until(&self, t: f64) -> Duration {
        Duration::try_from_secs_f64(t - self.elapsed_s()).unwrap_or(Duration::ZERO)
    }

    /// Sleeps until `t` seconds since pipeline start (no-op if already
    /// past).
    fn sleep_until(&self, t: f64) {
        thread::sleep(self.until(t));
    }
}

/// A worker's account of one chunk: the chunk back, and either the engine's
/// response with the `[start, finish]` it occupied the (emulated) device
/// for, or the payload of the panic that killed the worker.
struct Done {
    worker: usize,
    chunk: QueuedChunk,
    outcome: thread::Result<(SearchResponse, f64, f64)>,
}

/// Runs the full pipeline over `stream`, one engine instance per worker
/// thread, and returns the report once every thread has joined.
///
/// `engines` determines the worker count; every element must answer
/// identically for the same `(query, k, nprobe)` — in this workspace that
/// holds for N instances of any engine over the same index (answers are
/// pure), which is exactly what the twin tests assert. The `options_of`
/// closure maps a stream index to its query options, like
/// [`SearchService::replay`](upanns_serve::SearchService::replay).
///
/// # Panics
///
/// Panics if `engines` is empty. A panic in an engine, in `options_of` or in
/// the policy is propagated to the caller with its original payload once
/// the remaining threads have stopped.
pub fn run_pipeline<E, F>(
    engines: Vec<E>,
    stream: &QueryStream,
    options_of: F,
    policy: Box<dyn BatchPolicy>,
    config: RuntimeConfig,
) -> RuntimeReport
where
    E: AnnEngine + Send,
    F: FnMut(usize) -> QueryOptions + Send,
{
    assert!(
        !engines.is_empty(),
        "the pipeline needs at least one engine worker"
    );
    let engine_name = engines[0].name().to_string();
    let clock = WallClock::start();
    let outcome = thread::scope(|scope| {
        let (to_control, from_workers) = channel::<Done>();
        let to_workers: Vec<SyncSender<QueuedChunk>> = engines
            .into_iter()
            .enumerate()
            .map(|(worker, engine)| {
                let (tx, rx) = sync_channel(1);
                let to_control = to_control.clone();
                scope.spawn(move || {
                    worker_thread(worker, engine, stream, config.mode, clock, &rx, &to_control)
                });
                tx
            })
            .collect();
        drop(to_control);
        let control = scope.spawn(move || {
            control_thread(
                stream,
                options_of,
                policy,
                &config,
                clock,
                &engine_name,
                &to_workers,
                &from_workers,
            )
        });
        // Returning drops the control thread's chunk senders, which is what
        // stops the workers; the scope then joins them.
        control.join()
    });
    // The one propagation point: an engine panic shipped by its worker, or
    // a panic of the control thread itself.
    match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(payload)) | Err(payload) => resume_unwind(payload),
    }
}

/// The control thread: owns the serving core and steps it from the wall
/// clock (or the stream's timestamps) and the workers' completions.
#[expect(
    clippy::too_many_arguments,
    reason = "the control thread's whole world, passed once"
)]
fn control_thread<F: FnMut(usize) -> QueryOptions>(
    stream: &QueryStream,
    mut options_of: F,
    mut policy: Box<dyn BatchPolicy>,
    config: &RuntimeConfig,
    clock: WallClock,
    engine_name: &str,
    to_workers: &[SyncSender<QueuedChunk>],
    from_workers: &Receiver<Done>,
) -> thread::Result<RuntimeReport> {
    let mode = config.mode;
    let mut service = config.service;
    if mode == RuntimeMode::Logical {
        // The twin must be lossless: whether a query is shed depends on
        // thread timing, so logical mode widens the waiting room to hold
        // the whole stream. Wall mode sheds exactly as configured.
        service.queue_capacity = service.queue_capacity.max(stream.len());
    }
    let mut core = ServingCore::new(stream, service, policy.as_mut(), &config.epoch_schedule);
    let mut idle: Vec<usize> = (0..to_workers.len()).collect();
    let mut next = 0usize;
    loop {
        // The next timed event — the next arrival or the earliest window
        // deadline — or, failing both, the next completion.
        let arrival = stream.arrivals.get(next).copied();
        let timer = match (arrival, core.next_deadline()) {
            (Some(a), Some(d)) => Some(a.min(d)),
            (a, d) => a.or(d),
        };
        let first = match (timer, mode) {
            (Some(t), RuntimeMode::Wall) => match from_workers.recv_timeout(clock.until(t)) {
                Ok(done) => Some(done),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            },
            // The logical clock is the stream's: nothing ever waits for it.
            (Some(_), RuntimeMode::Logical) => None,
            (None, _) if idle.len() < to_workers.len() => match from_workers.recv() {
                Ok(done) => Some(done),
                Err(_) => break,
            },
            (None, _) => break,
        };
        for done in first.into_iter().chain(from_workers.try_iter()) {
            let (response, start, finish) = done.outcome?;
            core.complete(done.chunk, response, start, finish);
            idle.push(done.worker);
        }
        let now = match mode {
            RuntimeMode::Wall => clock.elapsed_s(),
            RuntimeMode::Logical => arrival.unwrap_or(f64::INFINITY),
        };
        core.tick(now);
        core.close_due(now);
        if arrival.is_some_and(|a| a <= now) {
            core.arrive(now, next, options_of(next));
            next += 1;
        }
        while let Some(&worker) = idle.last() {
            let Some(chunk) = core.pop_chunk(f64::INFINITY) else {
                break;
            };
            // A worker listed idle is blocked in `recv` on its cap-1
            // channel, so this send cannot stall the control loop.
            if to_workers[worker].send(chunk).is_ok() {
                idle.pop();
            }
        }
    }
    let conservation = core.conservation();
    Ok(RuntimeReport::new(
        core.into_report(engine_name),
        mode.label(),
        to_workers.len(),
        stream.len(),
        conservation,
    ))
}

/// One engine worker: builds each chunk's request, executes it and — in
/// wall mode — sleeps out the engine's modeled occupancy so the thread
/// behaves like one modeled device. A panic while serving a chunk is caught
/// and shipped to the control thread, which is otherwise left waiting for a
/// completion that will never come.
fn worker_thread<E: AnnEngine>(
    worker: usize,
    mut engine: E,
    stream: &QueryStream,
    mode: RuntimeMode,
    clock: WallClock,
    chunks: &Receiver<QueuedChunk>,
    to_control: &Sender<Done>,
) {
    // Distinct id ranges per worker keep request ids unique without
    // cross-thread coordination (ids label requests; answers ignore them).
    let first_request_id = ((worker as u64) << 32) + 1;
    for (request_id, chunk) in (first_request_id..).zip(chunks) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let request = request_for(stream, &chunk, request_id);
            let started = clock.elapsed_s();
            let response = engine.execute(&request);
            let (start, finish) = match mode {
                RuntimeMode::Wall => {
                    // The real computation is nearly free at fixture scale;
                    // the modeled seconds are the occupancy being emulated.
                    clock.sleep_until(started + response.seconds);
                    (started, clock.elapsed_s())
                }
                RuntimeMode::Logical => {
                    let closed_at = chunk.batch.closed_at;
                    (closed_at, closed_at + response.seconds)
                }
            };
            (response, start, finish)
        }));
        // The engine's state is suspect after a panic: serve nothing more.
        let panicked = outcome.is_err();
        let done = Done {
            worker,
            chunk,
            outcome,
        };
        if to_control.send(done).is_err() || panicked {
            return;
        }
    }
}
