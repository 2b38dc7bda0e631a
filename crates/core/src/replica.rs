//! The multi-host engine (§5.5), with replication and fault tolerance.
//!
//! The paper's multi-host extension needs exactly two cross-host legs —
//! query distribution and result aggregation — and [`ReplicatedMultiHost`] is
//! the one engine that models them: broadcast the request, wait for the
//! slowest shard, gather the per-shard top-k lists, merge. The paper's own
//! deployment (one host per shard, every host healthy forever) is the
//! `replicas = 1`, empty-[`FaultSchedule`] configuration; everything else
//! here is what that configuration leaves switched off:
//!
//! * [`ReplicaMap`] places every shard on `r ≥ 1` hosts (ring placement over
//!   the [`shard_indexes`](crate::multihost::shard_indexes) shards), and
//!   rebalances with an explicit `MigrationPlan` when the host count
//!   changes;
//! * [`FaultSchedule`] injects host down/up events at *simulated* times — no
//!   wall clock, so the workspace's no-wall-clock lint and the runtime's
//!   byte-diffed twin still hold. The schedule is evaluated at
//!   [`SearchRequest::at`](baselines::engine::SearchRequest::at), which the
//!   serving layers set to the batch close time (identical between the
//!   discrete-event replay and the threaded twin);
//! * per batch the engine picks one live replica per shard, re-dispatches a
//!   shard **exactly once** to a surviving replica when its host dies with
//!   the work in flight (stalling until the outage ends when nobody
//!   survives), hedges a shard to a second replica when the primary's modeled
//!   completion exceeds the hedging budget, and merges per-query top-k lists
//!   across shards.
//!
//! **Answer purity.** Each shard is served by one underlying engine; which
//! *host* answers only moves simulated time. The merged answers are therefore
//! a pure function of (queries, per-query options, the set of shards with at
//! least one live replica at `request.at`) — with all hosts healthy they are
//! bitwise-identical to the unreplicated merge, and under faults they equal
//! the unreplicated merge restricted to surviving coverage, with the dropped
//! query×shard pairs counted in `stats.degraded` (never a silent partial
//! answer). A mid-flight death only moves completion times (re-dispatch or
//! stall), never the answer.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

use annkit::topk::{Neighbor, TopK};
use baselines::engine::{AnnEngine, SearchRequest, SearchResponse};
use baselines::workload_stats::WorkloadStats;
use pim_sim::energy::EnergyModel;
use pim_sim::stats::{Stage, StageBreakdown};

use crate::engine::{host_merge_seconds, UpAnnsEngine};
use crate::multihost::InterconnectModel;

/// Why a [`ReplicaMap`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaMapError {
    /// Zero hosts can serve nothing.
    ZeroHosts,
    /// A replica factor of zero would silently drop every shard.
    ZeroReplicas,
    /// More replicas than hosts would wrap the ring onto the same host; the
    /// map refuses rather than placing two "replicas" on one failure domain.
    ReplicasExceedHosts {
        /// Requested replica factor.
        replicas: usize,
        /// Available hosts.
        hosts: usize,
    },
}

impl fmt::Display for ReplicaMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroHosts => write!(f, "replica map needs at least one host"),
            Self::ZeroReplicas => write!(f, "replica map needs a replica factor of at least one"),
            Self::ReplicasExceedHosts { replicas, hosts } => write!(
                f,
                "replica factor {replicas} exceeds {hosts} host(s); \
                 refusing to co-locate replicas on one failure domain"
            ),
        }
    }
}

impl std::error::Error for ReplicaMapError {}

/// One shard's worth of data moving to a new host during a rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardMove {
    /// The shard being copied.
    pub shard: usize,
    /// A host that already held the shard (the copy source).
    pub from: usize,
    /// The host gaining the shard.
    pub to: usize,
}

/// The set of shard copies a rebalance requires.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct MigrationPlan {
    /// Every (shard, from, to) copy, in shard order.
    pub moves: Vec<ShardMove>,
}

/// Ring placement of `shards` shards onto `hosts` hosts with replica factor
/// `replicas`: shard `s` lives on hosts `(s + j) mod hosts` for
/// `j in 0..replicas`. Every shard is on exactly `replicas` distinct hosts,
/// and host loads differ by at most one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMap {
    shards: usize,
    hosts: usize,
    replicas: usize,
}

impl ReplicaMap {
    /// Builds the map, rejecting degenerate shapes (see [`ReplicaMapError`]).
    pub fn new(shards: usize, hosts: usize, replicas: usize) -> Result<Self, ReplicaMapError> {
        if hosts == 0 {
            return Err(ReplicaMapError::ZeroHosts);
        }
        if replicas == 0 {
            return Err(ReplicaMapError::ZeroReplicas);
        }
        if replicas > hosts {
            return Err(ReplicaMapError::ReplicasExceedHosts { replicas, hosts });
        }
        Ok(Self {
            shards,
            hosts,
            replicas,
        })
    }

    /// Number of hosts placed onto.
    pub(crate) fn num_hosts(&self) -> usize {
        self.hosts
    }

    /// The replica factor.
    pub(crate) fn replicas(&self) -> usize {
        self.replicas
    }

    /// The hosts holding `shard`, in ring order (the first entry is the
    /// shard's primary).
    pub fn hosts_of(&self, shard: usize) -> Vec<usize> {
        assert!(shard < self.shards, "shard {shard} out of range");
        (0..self.replicas)
            .map(|j| (shard + j) % self.hosts)
            .collect()
    }

    /// Recomputes the ring for a new host count and returns the new map plus
    /// the shard copies needed to realize it. Every shard ends on exactly
    /// `replicas` hosts of the *new* host set (migration conservation); the
    /// plan lists one move per placement that did not exist before.
    pub(crate) fn rebalance(
        &self,
        new_hosts: usize,
    ) -> Result<(Self, MigrationPlan), ReplicaMapError> {
        let next = Self::new(self.shards, new_hosts, self.replicas)?;
        let mut moves = Vec::new();
        for s in 0..self.shards {
            let old: Vec<usize> = self.hosts_of(s);
            let from = old[0];
            for to in next.hosts_of(s) {
                if !old.contains(&to) {
                    moves.push(ShardMove { shard: s, from, to });
                }
            }
        }
        Ok((next, MigrationPlan { moves }))
    }
}

/// One host outage: `host` is down for simulated times `down_at <= t < up_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The host that fails.
    pub host: usize,
    /// Simulated second the host dies.
    pub down_at: f64,
    /// Simulated second the host comes back (exclusive of the outage).
    pub up_at: f64,
}

/// A deterministic schedule of host outages on the replay clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// A schedule with no outages (every host always up).
    pub fn none() -> Self {
        Self::default()
    }

    /// A schedule from explicit events.
    ///
    /// # Panics
    /// Panics if any event has `down_at >= up_at` or non-finite times.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        for e in &events {
            assert!(
                e.down_at.is_finite() && e.up_at.is_finite() && e.down_at < e.up_at,
                "fault event for host {} needs finite down_at < up_at",
                e.host
            );
        }
        Self { events }
    }

    /// Parses the serve binary's `--fault` grammar: one or more
    /// comma-separated `HOST@DOWN..UP` outages, e.g. `1@20..45` or
    /// `0@5..9,2@30..60`. Times are simulated seconds.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(format!("empty outage in fault spec {spec:?}"));
            }
            let (host_s, window) = part
                .split_once('@')
                .ok_or_else(|| format!("outage {part:?} is not HOST@DOWN..UP"))?;
            let host: usize = host_s
                .parse()
                .map_err(|_| format!("bad host index {host_s:?} in outage {part:?}"))?;
            let (down_s, up_s) = window
                .split_once("..")
                .ok_or_else(|| format!("outage {part:?} window is not DOWN..UP"))?;
            let down_at: f64 = down_s
                .parse()
                .map_err(|_| format!("bad down time {down_s:?} in outage {part:?}"))?;
            let up_at: f64 = up_s
                .parse()
                .map_err(|_| format!("bad up time {up_s:?} in outage {part:?}"))?;
            if !down_at.is_finite() || !up_at.is_finite() || down_at < 0.0 {
                return Err(format!(
                    "outage {part:?} times must be finite and non-negative"
                ));
            }
            if down_at >= up_at {
                return Err(format!("outage {part:?} must have DOWN < UP"));
            }
            events.push(FaultEvent {
                host,
                down_at,
                up_at,
            });
        }
        Ok(Self { events })
    }

    /// The scheduled outages.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether `host` is up at simulated time `t`.
    pub(crate) fn is_up(&self, host: usize, t: f64) -> bool {
        !self
            .events
            .iter()
            .any(|e| e.host == host && e.down_at <= t && t < e.up_at)
    }

    /// The earliest time in `(after, until]` at which `host` goes down, if
    /// any — the instant in-flight work on that host is lost.
    pub(crate) fn down_during(&self, host: usize, after: f64, until: f64) -> Option<f64> {
        self.events
            .iter()
            .filter(|e| e.host == host && e.down_at > after && e.down_at <= until)
            .map(|e| e.down_at)
            .fold(None, |best: Option<f64>, d| {
                Some(best.map_or(d, |b| b.min(d)))
            })
    }

    /// The earliest time at or after `t` when `host` is up (`t` itself when
    /// the host is already up). Chained/overlapping outages are walked until
    /// a gap is found.
    pub fn up_after(&self, host: usize, t: f64) -> f64 {
        let mut t = t;
        loop {
            match self
                .events
                .iter()
                .find(|e| e.host == host && e.down_at <= t && t < e.up_at)
            {
                Some(e) => t = e.up_at,
                None => return t,
            }
        }
    }
}

/// A replicated multi-host UpANNS deployment with deterministic fault
/// injection, hedged retries, and host-level elasticity.
///
/// One underlying [`UpAnnsEngine`] serves each *shard*; hosts are modeled
/// timing entities that the [`ReplicaMap`] assigns shards to. See the module
/// docs for the answer-purity contract.
pub struct ReplicatedMultiHost {
    shards: Vec<UpAnnsEngine>,
    shard_bytes: Vec<usize>,
    map: ReplicaMap,
    interconnect: InterconnectModel,
    faults: FaultSchedule,
    hedge_budget_s: Option<f64>,
    name: String,
    /// Per-host simulated time before which the host is still pulling shard
    /// data and cannot serve (only ever non-zero for hosts added by
    /// [`scale_to`](AnnEngine::scale_to)).
    ready_at: Vec<f64>,
    /// Shard engines that participated in the last executed batch.
    last_served: Vec<usize>,
    /// Total modeled migration seconds charged by `scale_to` so far.
    migration_s_total: f64,
}

impl ReplicatedMultiHost {
    /// Assembles a deployment from per-shard engines (each over one of
    /// [`shard_indexes`](crate::multihost::shard_indexes)' slices of the one
    /// trained index), `hosts` hosts and replica factor `replicas`.
    pub fn new(
        shards: Vec<UpAnnsEngine>,
        hosts: usize,
        replicas: usize,
        interconnect: InterconnectModel,
    ) -> Result<Self, ReplicaMapError> {
        let map = ReplicaMap::new(shards.len(), hosts, replicas)?;
        let shard_bytes = shards
            .iter()
            .map(|e| {
                // A host pulls each migrated vector's PQ code (`m` bytes)
                // and its 8-byte global id once, not once per DPU replica.
                let index = e.timeline().at(f64::INFINITY);
                index.ntotal() as usize * (index.m() + 8)
            })
            .collect();
        let name = Self::display_name(shards.len(), hosts, replicas);
        Ok(Self {
            shards,
            shard_bytes,
            map,
            interconnect,
            faults: FaultSchedule::none(),
            hedge_budget_s: None,
            name,
            ready_at: vec![0.0; hosts],
            last_served: Vec::new(),
            migration_s_total: 0.0,
        })
    }

    fn display_name(shards: usize, hosts: usize, replicas: usize) -> String {
        format!("UpANNS x{hosts} hosts r{replicas} ({shards} shards)")
    }

    /// Installs the outage schedule (replaces any previous one).
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Enables hedged retries: a shard whose modeled completion exceeds
    /// `seconds` past the request's dispatch time is cloned to the
    /// least-loaded other live replica, and the shard completes at the
    /// earlier of the two finishes.
    pub fn with_hedge_budget(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "hedge budget must be positive");
        self.hedge_budget_s = Some(seconds);
        self
    }

    /// The shard→host placement currently in force.
    pub fn replica_map(&self) -> &ReplicaMap {
        &self.map
    }

    /// Total modeled migration seconds charged by `scale_to` so far.
    pub fn migration_seconds(&self) -> f64 {
        self.migration_s_total
    }

    /// The worst per-shard-engine DPU balance ratio **of the last executed
    /// batch**. Only engines that actually served the last batch contribute,
    /// and non-finite per-engine values are discarded, so the value stays
    /// well-defined (default 1.0) when the host set — and with it the set of
    /// participating shards — changes between batches.
    pub fn last_balance_ratio(&self) -> f64 {
        self.last_served
            .iter()
            .map(|&s| self.shards[s].last_balance_ratio())
            .filter(|r| r.is_finite())
            .fold(1.0f64, f64::max)
    }

    /// Whether `host` can serve at simulated time `t`: provisioned, finished
    /// migrating, and not inside a scheduled outage.
    fn host_live(&self, host: usize, t: f64) -> bool {
        host < self.map.num_hosts() && self.ready_at[host] <= t && self.faults.is_up(host, t)
    }

    /// The live replicas of `shard` at time `t`, in ring order.
    fn live_replicas(&self, shard: usize, t: f64) -> Vec<usize> {
        self.map
            .hosts_of(shard)
            .into_iter()
            .filter(|&h| self.host_live(h, t))
            .collect()
    }

    /// The least-loaded live replica of `shard` at time `at` other than
    /// `primary` (first in ring order on ties), if any.
    fn least_loaded_other(
        &self,
        shard: usize,
        primary: usize,
        at: f64,
        host_busy: &[f64],
    ) -> Option<usize> {
        self.live_replicas(shard, at)
            .into_iter()
            .filter(|&h| h != primary)
            .fold(None, |best: Option<usize>, h| {
                Some(best.map_or(h, |b| if host_busy[h] < host_busy[b] { h } else { b }))
            })
    }
}

impl AnnEngine for ReplicatedMultiHost {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&mut self, request: &SearchRequest) -> SearchResponse {
        if request.is_empty() {
            return SearchResponse::empty(request.id);
        }
        let t0 = request.at;
        let queries = request.queries();
        let num_shards = self.shards.len();
        let live_count = (0..self.map.num_hosts())
            .filter(|&h| self.host_live(h, t0))
            .count();
        let peers = live_count.saturating_sub(1);

        // Replica selection: one live host per shard, keyed on the request id
        // so the choice is deterministic and spreads across replicas. A shard
        // with no live replica is *degraded*: it is dropped from the merge
        // and counted, never silently answered.
        let mut primaries: Vec<Option<usize>> = Vec::with_capacity(num_shards);
        let mut degraded_shards = 0u64;
        for s in 0..num_shards {
            let live = self.live_replicas(s, t0);
            if live.is_empty() {
                degraded_shards += 1;
                primaries.push(None);
            } else {
                primaries.push(Some(live[request.id as usize % live.len()]));
            }
        }

        let query_bytes = queries.len() * queries.dim() * 4;
        let broadcast_s = self.interconnect.transfer_seconds(query_bytes, peers);
        let start = t0 + broadcast_s;

        // Functional execution: each covered shard runs once, regardless of
        // which host (or hosts, under hedging) the timing model charges.
        let mut served: Vec<(usize, SearchResponse)> = Vec::new();
        self.last_served.clear();
        let mut hedged = 0u64;
        let mut redispatched = 0u64;
        let mut host_busy = vec![0.0f64; self.map.num_hosts()];
        let mut search_s = 0.0f64;
        for (s, slot) in primaries.iter().enumerate() {
            let Some(primary) = *slot else { continue };
            let outcome = self.shards[s].execute(request);
            let shard_sec = outcome.seconds;
            let abs_start = start + host_busy[primary];
            let abs_finish = abs_start + shard_sec;
            let completion;
            if let Some(died_at) = self.faults.down_during(primary, t0, abs_finish) {
                // The host died with this shard in flight: move the work to a
                // surviving replica exactly once (no second hop — a double
                // failure inside one batch window keeps the late answer).
                match self.least_loaded_other(s, primary, died_at, &host_busy) {
                    Some(alt) => {
                        redispatched += 1;
                        let retry_start = died_at.max(start + host_busy[alt]);
                        completion = retry_start + shard_sec;
                        host_busy[alt] = completion - start;
                    }
                    None => {
                        // Every replica is down at the death instant: the
                        // shard stalls until the primary's outage ends and
                        // re-runs there. Answers never lose coverage that
                        // existed at dispatch time — only simulated time
                        // moves — so the merge stays a pure function of the
                        // live set at `request.at`.
                        redispatched += 1;
                        let resume = self.faults.up_after(primary, died_at).max(abs_start);
                        completion = resume + shard_sec;
                        host_busy[primary] = completion - start;
                    }
                }
            } else {
                let mut finish = abs_finish;
                host_busy[primary] += shard_sec;
                if let Some(budget) = self.hedge_budget_s {
                    if finish - t0 > budget {
                        // Straggler: clone the shard to the least-loaded
                        // other live replica; first finish wins.
                        if let Some(alt) = self.least_loaded_other(s, primary, t0, &host_busy) {
                            hedged += 1;
                            let hedge_finish = start + host_busy[alt] + shard_sec;
                            host_busy[alt] += shard_sec;
                            finish = finish.min(hedge_finish);
                        }
                    }
                }
                completion = finish;
            }
            search_s = search_s.max(completion - start);
            self.last_served.push(s);
            served.push((s, outcome));
        }

        // Result aggregation over the covered shards, as in the unreplicated
        // coordinator: gather leg plus a scalar merge.
        let returned_k: usize = request.options().iter().map(|o| o.k).sum();
        let result_bytes = returned_k * 12;
        let gather_s = self.interconnect.transfer_seconds(result_bytes, peers);
        let merge_s = host_merge_seconds(served.len() * returned_k);

        // Per-query merge in shard order. Shard id ranges are disjoint and
        // each covered shard answers once (a hedged clone is timing only),
        // so no id can arrive twice.
        let mut results: Vec<Vec<Neighbor>> = Vec::with_capacity(queries.len());
        for (q, opt) in request.options().iter().enumerate() {
            let mut heap = TopK::new(opt.k);
            for n in served.iter().flat_map(|(_, outcome)| &outcome.results[q]) {
                heap.push(n.id, n.distance);
            }
            results.push(heap.into_sorted());
        }

        // The slowest shard's stages stand for the search leg.
        let mut breakdown = StageBreakdown::new();
        breakdown.add(Stage::QueryBroadcast, broadcast_s);
        if let Some(critical) = served.iter().map(|(_, o)| o).max_by(|a, b| {
            a.seconds
                .partial_cmp(&b.seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
        }) {
            breakdown.add(Stage::DpuSearch, search_s);
            breakdown.splice(Stage::DpuSearch, &critical.breakdown);
        }
        breakdown.add(Stage::ResultGather, gather_s);
        breakdown.add(Stage::CoordinatorMerge, merge_s);

        let mut stats = WorkloadStats::default();
        for (_, o) in &served {
            stats.merge(&o.stats);
        }
        stats.queries = queries.len();
        stats.k = request.max_k();
        stats.nprobe = request
            .options()
            .iter()
            .map(|o| o.nprobe)
            .max()
            .unwrap_or(0);
        stats.degraded = degraded_shards * queries.len() as u64;
        stats.hedged = hedged;
        stats.redispatched = redispatched;

        SearchResponse {
            request_id: request.id,
            results,
            seconds: broadcast_s + search_s + gather_s + merge_s,
            breakdown,
            stats,
        }
    }

    fn energy_model(&self) -> EnergyModel {
        // Every replica stores and powers its shard's DPUs.
        let copies = self.map.replicas() as f64;
        let mut watts = 0.0;
        let mut price = 0.0;
        for shard in &self.shards {
            let m = shard.energy_model();
            watts += m.peak_watts;
            price += m.price_usd;
        }
        EnergyModel::new(self.name.clone(), copies * watts, copies * price)
    }

    /// Declines: each shard engine is cut from the index once and owns its
    /// slice outright, so the shards share no timeline a mutation stream
    /// could fold into — splitting one timeline across them is still to be
    /// built. The deployment keeps serving its construction-time shards.
    fn install_timeline(&mut self, _timeline: annkit::mutation::SnapshotTimeline) -> bool {
        false
    }

    /// Rebalances the replica map to `hosts` hosts at simulated time `now`,
    /// charging shard copies through the interconnect. Pulls to distinct
    /// destination hosts overlap, so the returned migration time is the
    /// slowest destination's pull; hosts that are *new* to the deployment
    /// cannot serve until their pull completes (existing hosts keep serving
    /// the shards they already hold). The target is clamped to the replica
    /// factor so elasticity can never silently under-replicate.
    fn scale_to(&mut self, hosts: usize, now: f64) -> Option<f64> {
        let target = hosts.max(self.map.replicas()).max(1);
        let old_hosts = self.map.num_hosts();
        if target == old_hosts {
            return Some(0.0);
        }
        let (next, plan) = match self.map.rebalance(target) {
            Ok(v) => v,
            Err(_) => return None,
        };
        let mut dest_bytes = vec![0usize; target];
        for mv in &plan.moves {
            if mv.to < target {
                dest_bytes[mv.to] += self.shard_bytes[mv.shard];
            }
        }
        let mut migration_s = 0.0f64;
        let mut new_ready = vec![0.0f64; target];
        for (h, &bytes) in dest_bytes.iter().enumerate() {
            let cost = self.interconnect.transfer_seconds(bytes, 1);
            migration_s = migration_s.max(cost);
            if h < old_hosts {
                new_ready[h] = self.ready_at[h];
            } else {
                new_ready[h] = now + cost;
            }
        }
        self.map = next;
        self.ready_at = new_ready;
        self.migration_s_total += migration_s;
        self.name = Self::display_name(self.shards.len(), target, self.map.replicas());
        Some(migration_s)
    }

    fn live_hosts(&self) -> Option<usize> {
        Some(self.map.num_hosts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ring_placement_covers_every_shard_with_distinct_hosts() {
        let map = ReplicaMap::new(7, 4, 2).expect("valid");
        for s in 0..7 {
            let hosts = map.hosts_of(s);
            assert_eq!(hosts.len(), 2);
            assert_ne!(hosts[0], hosts[1], "replicas share a failure domain");
            assert!(hosts.iter().all(|&h| h < 4));
        }
        // Host loads differ by at most one shard.
        let mut loads = [0usize; 4];
        for s in 0..7 {
            for h in map.hosts_of(s) {
                loads[h] += 1;
            }
        }
        assert_eq!(loads.iter().sum::<usize>(), 7 * 2);
        let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert!(max - min <= 1, "uneven ring loads {loads:?}");
    }

    #[test]
    fn degenerate_maps_error_instead_of_wrapping() {
        assert_eq!(ReplicaMap::new(4, 0, 1), Err(ReplicaMapError::ZeroHosts));
        assert_eq!(ReplicaMap::new(4, 2, 0), Err(ReplicaMapError::ZeroReplicas));
        assert_eq!(
            ReplicaMap::new(4, 2, 3),
            Err(ReplicaMapError::ReplicasExceedHosts {
                replicas: 3,
                hosts: 2
            })
        );
        // The error messages render (std::error::Error is implemented).
        let err = ReplicaMap::new(4, 2, 3).unwrap_err();
        assert!(err.to_string().contains("replica factor 3"));
        // Zero shards is a valid (empty) map, e.g. n == 0 datasets.
        ReplicaMap::new(0, 3, 2).expect("empty map is fine");
    }

    #[test]
    fn rebalance_conserves_replica_count_and_plans_only_new_placements() {
        let map = ReplicaMap::new(6, 3, 2).expect("valid");
        let (grown, plan) = map.rebalance(5).expect("grow");
        for s in 0..6 {
            let hosts = grown.hosts_of(s);
            assert_eq!(hosts.len(), 2, "shard {s} not on exactly r live hosts");
            let unique: HashSet<usize> = hosts.iter().copied().collect();
            assert_eq!(unique.len(), 2);
        }
        for mv in &plan.moves {
            assert!(
                map.hosts_of(mv.shard).contains(&mv.from),
                "source held the shard"
            );
            assert!(
                !map.hosts_of(mv.shard).contains(&mv.to),
                "move already placed"
            );
            assert!(
                grown.hosts_of(mv.shard).contains(&mv.to),
                "move lands in new map"
            );
        }
        // Shrinking below the replica factor errors instead of wrapping.
        assert!(map.rebalance(1).is_err());
        // A no-op rebalance plans no moves.
        let (same, noop) = map.rebalance(3).expect("same size");
        assert_eq!(same, map);
        assert!(noop.moves.is_empty());
    }

    #[test]
    fn fault_schedule_parses_the_cli_grammar() {
        let sched = FaultSchedule::parse("1@20..45").expect("valid");
        assert_eq!(sched.events().len(), 1);
        assert!(sched.is_up(1, 19.9));
        assert!(!sched.is_up(1, 20.0), "down_at is inclusive");
        assert!(!sched.is_up(1, 44.9));
        assert!(sched.is_up(1, 45.0), "up_at is exclusive");
        assert!(sched.is_up(0, 30.0), "other hosts unaffected");

        let multi = FaultSchedule::parse("0@5..9, 2@30..60").expect("two outages");
        assert_eq!(multi.events().len(), 2);

        for bad in [
            "", "1", "1@", "@5..9", "1@9..5", "1@5..5", "x@5..9", "1@a..9", "1@5..b", "1@-3..9",
            "1@nan..9", "1@5..9,,", "1@5-9",
        ] {
            assert!(
                FaultSchedule::parse(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn down_during_finds_the_earliest_inflight_outage() {
        let sched = FaultSchedule::parse("1@10..20,1@30..40").expect("valid");
        assert_eq!(sched.down_during(1, 0.0, 5.0), None);
        assert_eq!(sched.down_during(1, 0.0, 15.0), Some(10.0));
        assert_eq!(sched.down_during(1, 0.0, 50.0), Some(10.0));
        assert_eq!(sched.down_during(1, 25.0, 50.0), Some(30.0));
        assert_eq!(
            sched.down_during(1, 10.0, 20.0),
            None,
            "strictly after `after`"
        );
        assert_eq!(sched.down_during(0, 0.0, 100.0), None);
    }
}
