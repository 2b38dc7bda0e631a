//! The dynamic batch former: turning single-query arrivals into engine-sized
//! batches without unbounded waiting.
//!
//! Engines amortize their per-batch overheads (kernel launches, DPU transfer
//! legs) over the batch, so bigger batches mean higher throughput — but a
//! query must not sit forever waiting for company. The former keeps one open
//! group per [`QueryOptions`] compatibility key and closes a group when
//!
//! * it reaches `max_batch` queries ([`CloseReason::Size`]), or
//! * its oldest member has waited `max_delay_s` ([`CloseReason::Deadline`]).
//!
//! Queries with different latency budgets share a group (budgets steer
//! upstream parameter selection, not execution); queries with different
//! `k`/`nprobe` never do, because the engines execute those as separate
//! uniform sub-batches anyway. Queries of different **tenants** never share
//! a group either — not because the engine cares (it does not), but because
//! each tenant may run its own close conditions
//! ([`set_tenant_config`](BatchFormer::set_tenant_config)): a tight-SLO
//! tenant's narrow window must be able to close *its* batch without dragging
//! a batch-hungry tenant's wide window shut with it. Formed batches are
//! therefore always tenant-pure, which is also what lets the service feed
//! each completion back to exactly one tenant's controller.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use baselines::engine::{QueryOptions, TenantId};

/// One admitted query waiting for (or leaving in) a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingQuery {
    /// When the query arrived, in stream seconds.
    pub arrival_s: f64,
    /// Its index in the replayed stream (also indexes the query vectors).
    pub stream_index: usize,
    /// Its per-query options.
    pub options: QueryOptions,
}

/// Why a batch left the former.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The group reached `max_batch` queries.
    Size,
    /// The group's oldest member hit the `max_delay_s` deadline.
    Deadline,
}

/// A closed batch, ready for the engine.
#[derive(Debug, Clone)]
pub struct FormedBatch {
    /// The compatibility options shared by all members (first member's).
    pub options: QueryOptions,
    /// The member queries in arrival order.
    pub members: Vec<PendingQuery>,
    /// When the group was opened (first member's arrival).
    pub opened_at: f64,
    /// When the group closed (size: closing arrival; deadline: the deadline).
    pub closed_at: f64,
    /// Why the group closed.
    pub reason: CloseReason,
}

impl FormedBatch {
    /// Number of member queries.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the batch is empty (never produced by the former).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Splits the batch into consecutive, arrival-ordered chunks of at most
    /// `max_chunk` members each — the dispatch granularity of the
    /// [`ChunkQueue`](crate::dispatch::ChunkQueue). Every chunk keeps the
    /// batch's options, open/close times and close reason (the batch still
    /// *closed* once; chunking only bounds how long an engine is committed
    /// per dispatch). A batch already within the cap
    /// comes back whole.
    ///
    /// # Panics
    /// Panics if `max_chunk` is zero.
    pub(crate) fn into_chunks(self, max_chunk: usize) -> Vec<FormedBatch> {
        assert!(max_chunk > 0, "chunks need at least one query");
        if self.members.len() <= max_chunk {
            return vec![self];
        }
        let Self {
            options,
            members,
            opened_at,
            closed_at,
            reason,
        } = self;
        members
            .chunks(max_chunk)
            .map(|chunk| FormedBatch {
                options,
                members: chunk.to_vec(),
                opened_at,
                closed_at,
                reason,
            })
            .collect()
    }
}

/// Close conditions of the batch former.
#[derive(Debug, Clone, Copy)]
pub struct BatchFormerConfig {
    /// Maximum queries per batch (the size trigger).
    pub max_batch: usize,
    /// Maximum seconds the oldest member may wait (the deadline trigger).
    pub max_delay_s: f64,
}

impl Default for BatchFormerConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay_s: 2e-3,
        }
    }
}

#[derive(Debug, Clone)]
struct OpenGroup {
    options: QueryOptions,
    members: Vec<PendingQuery>,
    opened_at: f64,
}

fn validate(config: &BatchFormerConfig) {
    assert!(config.max_batch > 0, "batches need at least one query");
    assert!(
        config.max_delay_s >= 0.0 && config.max_delay_s.is_finite(),
        "max delay must be a finite non-negative time"
    );
}

impl OpenGroup {
    fn close(self, closed_at: f64, reason: CloseReason) -> FormedBatch {
        FormedBatch {
            options: self.options,
            members: self.members,
            opened_at: self.opened_at,
            closed_at,
            reason,
        }
    }
}

/// Accumulates compatible queries into open groups and closes them on size
/// or deadline. Close conditions are resolved **per tenant**: a tenant with
/// its own registered config ([`set_tenant_config`](Self::set_tenant_config))
/// runs its own window, everyone else shares the default.
#[derive(Debug, Clone)]
pub struct BatchFormer {
    config: BatchFormerConfig,
    tenant_configs: Vec<(TenantId, BatchFormerConfig)>,
    open: Vec<OpenGroup>,
}

impl BatchFormer {
    /// A former with the given default close conditions.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero or the delay is negative/non-finite.
    pub fn new(config: BatchFormerConfig) -> Self {
        validate(&config);
        Self {
            config,
            tenant_configs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The close conditions governing `tenant`'s groups.
    pub(crate) fn config_for(&self, tenant: TenantId) -> BatchFormerConfig {
        self.tenant_configs
            .iter()
            .find(|(id, _)| *id == tenant)
            .map_or(self.config, |(_, c)| *c)
    }

    /// Installs (or replaces) `tenant`'s own close conditions mid-stream —
    /// the seam a [`BatchPolicy`](crate::controller::BatchPolicy) steers.
    /// The tenant's open groups keep accumulating; their deadlines are
    /// re-derived from the new `max_delay_s` at the next [`due`](Self::due)
    /// poll, and a group already at or above a *shrunken* `max_batch` closes
    /// on its next arrival.
    ///
    /// # Panics
    /// Panics on the same invalid configs as [`new`](Self::new).
    pub fn set_tenant_config(&mut self, tenant: TenantId, config: BatchFormerConfig) {
        validate(&config);
        match self.tenant_configs.iter_mut().find(|(id, _)| *id == tenant) {
            Some((_, c)) => *c = config,
            None => self.tenant_configs.push((tenant, config)),
        }
    }

    /// Adds an admitted query at time `now`. Returns the query's batch when
    /// this arrival fills it to its tenant's `max_batch`.
    pub fn push(&mut self, query: PendingQuery, now: f64) -> Option<FormedBatch> {
        let key = (query.options.compat_key(), query.options.tenant);
        let max_batch = self.config_for(query.options.tenant).max_batch;
        match self
            .open
            .iter_mut()
            .position(|g| (g.options.compat_key(), g.options.tenant) == key)
        {
            Some(i) => {
                self.open[i].members.push(query);
                if self.open[i].members.len() >= max_batch {
                    return Some(self.open.swap_remove(i).close(now, CloseReason::Size));
                }
            }
            None => {
                if max_batch == 1 {
                    // A singleton fills its batch on arrival; close it
                    // directly instead of bouncing through the open list.
                    let group = OpenGroup {
                        options: query.options,
                        members: vec![query],
                        opened_at: now,
                    };
                    return Some(group.close(now, CloseReason::Size));
                }
                self.open.push(OpenGroup {
                    options: query.options,
                    members: vec![query],
                    opened_at: now,
                });
            }
        }
        None
    }

    fn deadline_of(&self, group: &OpenGroup) -> f64 {
        group.opened_at + self.config_for(group.options.tenant).max_delay_s
    }

    /// The earliest deadline among open groups, if any (each group's
    /// deadline is derived from its own tenant's window).
    pub fn next_deadline(&self) -> Option<f64> {
        self.open
            .iter()
            .map(|g| self.deadline_of(g))
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Closes every group whose deadline has passed by `now`, oldest first.
    /// Each batch's `closed_at` is its own deadline, not `now` — except when
    /// `set_tenant_config` shrank the window under an open
    /// group, where the close is clamped to the group's newest arrival so a
    /// batch never closes before a member existed.
    pub fn due(&mut self, now: f64) -> Vec<FormedBatch> {
        // Remove in descending *index* order so earlier indices stay valid
        // (`open` is not sorted by age — size-triggered closes swap-remove),
        // then sort the closed batches by age for the caller.
        let expired: Vec<usize> = (0..self.open.len())
            .rev()
            .filter(|&i| self.deadline_of(&self.open[i]) <= now)
            .collect();
        let mut closed = Vec::with_capacity(expired.len());
        for i in expired {
            let deadline = self.deadline_of(&self.open[i]);
            let group = self.open.remove(i);
            let closed_at = group
                .members
                .iter()
                .map(|m| m.arrival_s)
                .fold(deadline, f64::max);
            closed.push(group.close(closed_at, CloseReason::Deadline));
        }
        closed.sort_by(|a, b| {
            a.opened_at
                .partial_cmp(&b.opened_at)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(i: usize, t: f64, k: usize, nprobe: usize) -> PendingQuery {
        PendingQuery {
            arrival_s: t,
            stream_index: i,
            options: QueryOptions::new(k, nprobe),
        }
    }

    #[test]
    fn size_trigger_closes_exactly_at_max_batch() {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 3,
            max_delay_s: 1.0,
        });
        assert!(former.push(pending(0, 0.0, 10, 8), 0.0).is_none());
        assert!(former.push(pending(1, 0.1, 10, 8), 0.1).is_none());
        let batch = former.push(pending(2, 0.2, 10, 8), 0.2).expect("full");
        assert_eq!(batch.reason, CloseReason::Size);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.closed_at, 0.2);
        assert_eq!(batch.opened_at, 0.0);
        assert!(former.open.is_empty());
    }

    #[test]
    fn deadline_trigger_closes_at_the_deadline_not_at_poll_time() {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 100,
            max_delay_s: 0.5,
        });
        former.push(pending(0, 0.0, 10, 8), 0.0);
        former.push(pending(1, 0.2, 10, 8), 0.2);
        assert_eq!(former.next_deadline(), Some(0.5));
        assert!(former.due(0.49).is_empty(), "not due yet");
        let closed = former.due(3.0);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].reason, CloseReason::Deadline);
        assert_eq!(closed[0].closed_at, 0.5, "closes at its deadline");
        assert_eq!(closed[0].len(), 2);
        assert_eq!(former.next_deadline(), None);
    }

    #[test]
    fn incompatible_options_form_separate_groups() {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 2,
            max_delay_s: 1.0,
        });
        assert!(former.push(pending(0, 0.0, 10, 8), 0.0).is_none());
        assert!(former.push(pending(1, 0.0, 20, 8), 0.0).is_none());
        assert!(former.push(pending(2, 0.0, 10, 4), 0.0).is_none());
        assert_eq!(former.open.len(), 3);
        // Filling the (k=10, nprobe=8) group closes only that group.
        let batch = former.push(pending(3, 0.1, 10, 8), 0.1).expect("full");
        assert_eq!(
            batch
                .members
                .iter()
                .map(|m| m.stream_index)
                .collect::<Vec<_>>(),
            vec![0, 3]
        );
        assert_eq!(former.open.len(), 2);
    }

    #[test]
    fn latency_budgets_do_not_split_groups() {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 2,
            max_delay_s: 1.0,
        });
        let mut budgeted = pending(0, 0.0, 10, 8);
        budgeted.options = budgeted.options.with_latency_budget(1e-3);
        assert!(former.push(budgeted, 0.0).is_none());
        assert!(former.push(pending(1, 0.0, 10, 8), 0.0).is_some());
    }

    #[test]
    fn due_survives_swap_remove_reordering() {
        // A size-triggered close swap-removes its group, so `open` is no
        // longer sorted by age; due() must still close the right groups
        // (this exact sequence used to panic with an out-of-bounds remove).
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 2,
            max_delay_s: 10.0,
        });
        former.push(pending(0, 0.0, 10, 8), 0.0); // group A
        former.push(pending(1, 1.0, 20, 8), 1.0); // group B
        former.push(pending(2, 2.0, 30, 8), 2.0); // group C
                                                  // Fill A: swap_remove leaves open = [C, B].
        assert!(former.push(pending(3, 3.0, 10, 8), 3.0).is_some());
        let closed = former.due(100.0);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].opened_at, 1.0, "oldest first");
        assert_eq!(closed[1].opened_at, 2.0);
        assert_eq!(closed[0].members[0].stream_index, 1);
        assert_eq!(closed[1].members[0].stream_index, 2);
        assert!(former.open.is_empty());
    }

    #[test]
    fn shrinking_the_window_never_backdates_a_close_before_a_member() {
        // A controller shrink can move a group's deadline into the past of
        // its own members; the close must clamp to the newest arrival or the
        // replay would record negative latencies.
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 100,
            max_delay_s: 10.0,
        });
        former.push(pending(0, 0.0, 10, 8), 0.0);
        former.push(pending(1, 5.0, 10, 8), 5.0);
        former.set_tenant_config(
            TenantId::DEFAULT,
            BatchFormerConfig {
                max_batch: 100,
                max_delay_s: 1.0, // deadline is now t=1.0, before member 1 arrived
            },
        );
        let closed = former.due(6.0);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].reason, CloseReason::Deadline);
        assert_eq!(closed[0].closed_at, 5.0, "clamped to the newest arrival");
        for m in &closed[0].members {
            assert!(m.arrival_s <= closed[0].closed_at);
        }
    }

    #[test]
    fn tenants_never_share_a_group() {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 2,
            max_delay_s: 1.0,
        });
        let mut a = pending(0, 0.0, 10, 8);
        a.options = a.options.with_tenant(TenantId(1));
        let mut b = pending(1, 0.0, 10, 8);
        b.options = b.options.with_tenant(TenantId(2));
        assert!(former.push(a, 0.0).is_none());
        assert!(
            former.push(b, 0.0).is_none(),
            "same compat key, different tenant: separate groups"
        );
        assert_eq!(former.open.len(), 2);
        // Filling tenant 1's group closes only tenant 1's group.
        let mut a2 = pending(2, 0.1, 10, 8);
        a2.options = a2.options.with_tenant(TenantId(1));
        let batch = former.push(a2, 0.1).expect("full");
        assert_eq!(batch.options.tenant, TenantId(1));
        assert!(batch
            .members
            .iter()
            .all(|m| m.options.tenant == TenantId(1)));
        assert_eq!(former.open.len(), 1);
    }

    #[test]
    fn per_tenant_windows_close_independently() {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 100,
            max_delay_s: 10.0,
        });
        former.set_tenant_config(
            TenantId(1),
            BatchFormerConfig {
                max_batch: 100,
                max_delay_s: 0.5, // a tight tenant window
            },
        );
        former.set_tenant_config(
            TenantId(2),
            BatchFormerConfig {
                max_batch: 100,
                max_delay_s: 4.0, // a batch-hungry tenant window
            },
        );
        let mut a = pending(0, 0.0, 10, 8);
        a.options = a.options.with_tenant(TenantId(1));
        let mut b = pending(1, 0.0, 10, 8);
        b.options = b.options.with_tenant(TenantId(2));
        former.push(a, 0.0);
        former.push(b, 0.0);
        // The earliest deadline is the tight tenant's.
        assert_eq!(former.next_deadline(), Some(0.5));
        let first = former.due(1.0);
        assert_eq!(first.len(), 1, "only the tight tenant's group is due");
        assert_eq!(first[0].options.tenant, TenantId(1));
        assert_eq!(first[0].closed_at, 0.5);
        // The wide tenant's group waits for its own window.
        assert_eq!(former.next_deadline(), Some(4.0));
        let second = former.due(4.0);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].options.tenant, TenantId(2));
        assert_eq!(second[0].closed_at, 4.0);
        // Per-tenant size caps too.
        former.set_tenant_config(
            TenantId(1),
            BatchFormerConfig {
                max_batch: 1,
                max_delay_s: 0.5,
            },
        );
        let mut c = pending(2, 5.0, 10, 8);
        c.options = c.options.with_tenant(TenantId(1));
        assert!(
            former.push(c, 5.0).is_some(),
            "tenant 1's own max_batch=1 closes immediately"
        );
        assert_eq!(former.config_for(TenantId(2)).max_batch, 100);
        assert_eq!(former.config_for(TenantId(9)).max_batch, 100, "default");
    }

    #[test]
    fn into_chunks_partitions_in_arrival_order() {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 7,
            max_delay_s: 1.0,
        });
        for i in 0..6 {
            former.push(pending(i, i as f64 * 0.1, 10, 8), i as f64 * 0.1);
        }
        let batch = former.push(pending(6, 0.6, 10, 8), 0.6).expect("full");
        let chunks = batch.clone().into_chunks(3);
        assert_eq!(chunks.len(), 3, "7 members at cap 3: 3 + 3 + 1");
        assert_eq!(
            chunks.iter().map(FormedBatch::len).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        let indices: Vec<usize> = chunks
            .iter()
            .flat_map(|c| c.members.iter().map(|m| m.stream_index))
            .collect();
        assert_eq!(indices, (0..7).collect::<Vec<_>>(), "order preserved");
        for chunk in &chunks {
            assert_eq!(chunk.opened_at, batch.opened_at);
            assert_eq!(chunk.closed_at, batch.closed_at);
            assert_eq!(chunk.reason, batch.reason);
            assert_eq!(chunk.options, batch.options);
        }
        // A batch within the cap comes back whole.
        let whole = batch.clone().into_chunks(7);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].len(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn zero_chunk_cap_is_rejected() {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 1,
            max_delay_s: 1.0,
        });
        let batch = former.push(pending(0, 0.0, 10, 8), 0.0).expect("full");
        let _ = batch.into_chunks(0);
    }

    #[test]
    fn max_batch_one_closes_immediately() {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 1,
            max_delay_s: 1.0,
        });
        let batch = former.push(pending(0, 0.0, 10, 8), 0.0).expect("immediate");
        assert_eq!(batch.reason, CloseReason::Size);
        assert_eq!(batch.len(), 1);
        assert!(!batch.is_empty());
    }
}
