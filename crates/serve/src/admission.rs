//! The admission queue: a bounded, weighted-fair waiting room in front of
//! the batch former.
//!
//! Under overload, queueing theory leaves two options: let the queue (and
//! therefore the tail latency) grow without bound, or shed load at the door.
//! The service sheds — but a shared waiting room with first-come-first-shed
//! admission hands the whole capacity to whichever tenant arrives fastest,
//! starving everyone else. This queue therefore allocates capacity
//! **per tenant** with a deficit-round-robin (DRR) scheduler:
//!
//! * While unreserved room exists, every arrival is admitted — free capacity
//!   is never withheld for fairness (work conservation).
//! * A shed arrival records per-tenant *backlog* (unmet demand).
//! * Capacity freed by completing batches is handed back as per-tenant
//!   *reservations*, allocated to backlogged tenants by DRR: each tenant's
//!   deficit counter grows by `quantum × weight` when the round-robin cursor
//!   reaches it and is spent one slot per reservation, so over a contended
//!   period tenants re-acquire capacity in proportion to their weights, and
//!   even a weight-1 tenant is granted slots every round (no starvation).
//! * A tenant's next arrivals consume its reservations before touching the
//!   shared free pool.
//! * Reservations record *historical* demand (the shed queries themselves
//!   never retry), so a tenant that sheds and then goes silent would strand
//!   its earmarked slots. A staleness valve reclaims every reservation into
//!   the free pool after `capacity` consecutive sheds with no admission
//!   anywhere — bounded unfairness instead of a wedged waiting room.
//!
//! Every shed is charged to the tenant that suffered it, and the serving
//! report counts it as an SLO miss — shed traffic never silently vanishes
//! from the accounting.

use annkit::workload::TenantId;

/// One tenant's admission lane.
#[derive(Debug, Clone)]
struct TenantLane {
    id: TenantId,
    weight: u32,
    /// Queries of this tenant currently occupying the waiting room.
    waiting: usize,
    /// Slots earmarked for this tenant by the DRR allocator.
    reserved: usize,
    /// Sheds not yet compensated by a reservation (the demand signal DRR
    /// allocates against), saturating at the queue capacity.
    backlog: usize,
    /// The DRR deficit counter, in slots.
    deficit: f64,
    admitted: u64,
    shed: u64,
}

/// Bounded weighted-fair admission accounting for queries waiting to be
/// batched.
///
/// Tenants may be registered up front ([`with_tenant`](Self::with_tenant))
/// or implicitly on their first arrival (weight 1), so single-tenant callers
/// can keep treating the queue as a plain bounded waiting room.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    capacity: usize,
    /// Unreserved free slots.
    free: usize,
    /// DRR quantum in slots per weight unit per round.
    quantum: f64,
    /// Round-robin position of the DRR allocator.
    cursor: usize,
    /// Sheds since the last successful admission — the staleness signal
    /// that triggers reservation reclaim once it exceeds the capacity.
    consecutive_sheds: usize,
    lanes: Vec<TenantLane>,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` concurrent waiters across all
    /// tenants.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (a service that admits nothing).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission capacity must be positive");
        Self {
            capacity,
            free: capacity,
            quantum: 1.0,
            cursor: 0,
            consecutive_sheds: 0,
            lanes: Vec::new(),
        }
    }

    /// Registers a tenant with a fair-share weight before traffic starts
    /// (re-weights the lane if the id is already known).
    ///
    /// # Panics
    /// Panics on a zero weight.
    pub fn with_tenant(mut self, id: TenantId, weight: u32) -> Self {
        self.register(id, weight);
        self
    }

    /// Registers (or re-weights) a tenant.
    ///
    /// # Panics
    /// Panics on a zero weight.
    pub fn register(&mut self, id: TenantId, weight: u32) {
        assert!(weight >= 1, "tenant weight must be at least 1");
        match self.lanes.iter_mut().find(|l| l.id == id) {
            Some(lane) => lane.weight = weight,
            None => self.lanes.push(TenantLane {
                id,
                weight,
                waiting: 0,
                reserved: 0,
                backlog: 0,
                deficit: 0.0,
                admitted: 0,
                shed: 0,
            }),
        }
    }

    fn lane_index(&mut self, id: TenantId) -> usize {
        match self.lanes.iter().position(|l| l.id == id) {
            Some(i) => i,
            None => {
                self.register(id, 1);
                self.lanes.len() - 1
            }
        }
    }

    /// Tries to admit one query of `tenant`. Returns `false` (and charges the
    /// shed to that tenant) when neither a reservation nor free room exists.
    ///
    /// Reservations belong to the tenant they were granted to — but when
    /// `capacity` consecutive arrivals have been shed with no admission in
    /// between, whoever holds reservations is clearly not showing up to use
    /// them, so they are all reclaimed into the free pool before this
    /// arrival is judged (the staleness valve: shed queries never retry, so
    /// unconsumed reservations would otherwise wedge the room forever).
    pub fn try_admit(&mut self, tenant: TenantId) -> bool {
        let i = self.lane_index(tenant);
        if self.lanes[i].reserved == 0 && self.free == 0 && self.consecutive_sheds >= self.capacity
        {
            for lane in &mut self.lanes {
                self.free += lane.reserved;
                lane.reserved = 0;
            }
        }
        let lane = &mut self.lanes[i];
        if lane.reserved > 0 {
            lane.reserved -= 1;
        } else if self.free > 0 {
            self.free -= 1;
        } else {
            lane.shed += 1;
            lane.backlog = (lane.backlog + 1).min(self.capacity);
            self.consecutive_sheds += 1;
            return false;
        }
        lane.waiting += 1;
        lane.admitted += 1;
        self.consecutive_sheds = 0;
        true
    }

    /// Releases `n` waiters of `tenant` (a formed batch finished on the
    /// engine), then re-allocates the freed room to backlogged tenants by
    /// deficit round robin.
    ///
    /// # Panics
    /// Panics if more waiters are released than the tenant has admitted.
    pub fn release(&mut self, tenant: TenantId, n: usize) {
        let i = self.lane_index(tenant);
        let lane = &mut self.lanes[i];
        assert!(
            n <= lane.waiting,
            "released more queries than are waiting for tenant {tenant}"
        );
        lane.waiting -= n;
        self.free += n;
        self.allocate();
    }

    /// DRR allocation of free slots to backlogged tenants: the cursor stays
    /// on a lane while it still has both backlog and ≥ 1 slot of deficit, so
    /// a weight-`w` tenant absorbs up to `w` consecutive slots per round —
    /// proportional shares under contention, one-slot minimum per round for
    /// everyone (no starvation).
    fn allocate(&mut self) {
        let n = self.lanes.len();
        if n == 0 {
            return;
        }
        // Fresh grants restart the staleness clock: newly earmarked slots
        // get a full `capacity` arrivals to be consumed before the valve
        // may reclaim them.
        if self.free > 0 && self.lanes.iter().any(|l| l.backlog > 0) {
            self.consecutive_sheds = 0;
        }
        while self.free > 0 && self.lanes.iter().any(|l| l.backlog > 0) {
            let lane = &mut self.lanes[self.cursor];
            if lane.backlog == 0 {
                lane.deficit = 0.0;
                self.cursor = (self.cursor + 1) % n;
                continue;
            }
            if lane.deficit < 1.0 {
                lane.deficit += self.quantum * f64::from(lane.weight);
            }
            let grant = (lane.deficit as usize).min(lane.backlog).min(self.free);
            lane.reserved += grant;
            lane.backlog -= grant;
            lane.deficit -= grant as f64;
            self.free -= grant;
            if lane.backlog == 0 {
                // Classic DRR: an emptied queue forfeits its residual deficit.
                lane.deficit = 0.0;
                self.cursor = (self.cursor + 1) % n;
            } else if lane.deficit < 1.0 {
                self.cursor = (self.cursor + 1) % n;
            }
            // Otherwise the lane keeps the cursor; `free` must be 0 here, so
            // the loop exits and the residual deficit carries to the next
            // release.
        }
    }

    /// Queries currently waiting, across all tenants.
    pub fn waiting(&self) -> usize {
        self.lanes.iter().map(|l| l.waiting).sum()
    }

    /// Unreserved free slots (capacity not held by waiters or reservations).
    pub fn free(&self) -> usize {
        self.free
    }

    /// Slots currently reserved for `tenant` by the DRR allocator.
    pub fn reserved_of(&self, tenant: TenantId) -> usize {
        self.lane(tenant).map_or(0, |l| l.reserved)
    }

    /// Total queries admitted so far, across all tenants.
    pub fn admitted(&self) -> u64 {
        self.lanes.iter().map(|l| l.admitted).sum()
    }

    /// Total queries shed so far, across all tenants.
    pub fn shed(&self) -> u64 {
        self.lanes.iter().map(|l| l.shed).sum()
    }

    fn lane(&self, id: TenantId) -> Option<&TenantLane> {
        self.lanes.iter().find(|l| l.id == id)
    }

    /// Queries of `tenant` currently waiting.
    pub fn waiting_of(&self, tenant: TenantId) -> usize {
        self.lane(tenant).map_or(0, |l| l.waiting)
    }

    /// Queries of `tenant` admitted so far.
    pub fn admitted_of(&self, tenant: TenantId) -> u64 {
        self.lane(tenant).map_or(0, |l| l.admitted)
    }

    /// Queries of `tenant` shed so far.
    pub fn shed_of(&self, tenant: TenantId) -> u64 {
        self.lane(tenant).map_or(0, |l| l.shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TenantId = TenantId(1);
    const T2: TenantId = TenantId(2);

    #[test]
    fn admits_until_capacity_then_sheds() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.try_admit(TenantId::DEFAULT));
        assert!(q.try_admit(TenantId::DEFAULT));
        assert!(!q.try_admit(TenantId::DEFAULT), "third waiter must be shed");
        assert_eq!((q.waiting(), q.admitted(), q.shed()), (2, 2, 1));

        q.release(TenantId::DEFAULT, 1);
        assert!(q.try_admit(TenantId::DEFAULT), "capacity freed by release");
        assert_eq!(q.waiting(), 2);
        assert_eq!(q.capacity, 2);
    }

    #[test]
    fn free_room_is_never_withheld_across_tenants() {
        // Work conservation: while unreserved room exists, any tenant gets
        // in, whatever the weights say.
        let mut q = AdmissionQueue::new(4)
            .with_tenant(T1, 100)
            .with_tenant(T2, 1);
        assert!(q.try_admit(T2));
        assert!(q.try_admit(T2));
        assert!(q.try_admit(T2));
        assert!(q.try_admit(T2), "low-weight tenant may fill idle capacity");
        assert!(!q.try_admit(T1), "room genuinely exhausted");
        assert_eq!(q.shed_of(T1), 1);
        assert_eq!(q.shed_of(T2), 0);
    }

    #[test]
    fn freed_capacity_flows_to_backlogged_tenants_by_weight() {
        // Saturate with both tenants backlogged, then free slots one at a
        // time: reservations must land 3:1.
        let mut q = AdmissionQueue::new(8).with_tenant(T1, 3).with_tenant(T2, 1);
        for _ in 0..4 {
            assert!(q.try_admit(T1));
            assert!(q.try_admit(T2));
        }
        // Both tenants now shed (recording backlog).
        for _ in 0..8 {
            assert!(!q.try_admit(T1));
            assert!(!q.try_admit(T2));
        }
        // Free 4 slots of tenant 1's completed batch: DRR earmarks 3 for the
        // weight-3 tenant and 1 for the weight-1 tenant.
        q.release(T1, 4);
        assert_eq!(q.reserved_of(T1), 3);
        assert_eq!(q.reserved_of(T2), 1);
        assert_eq!(q.free(), 0, "all freed room was allocated");
        // Arrivals consume their own reservations; the other tenant's
        // reservation is not up for grabs.
        assert!(q.try_admit(T2));
        assert!(!q.try_admit(T2), "tenant 2's single reservation is spent");
        assert!(q.try_admit(T1));
        assert!(q.try_admit(T1));
        assert!(q.try_admit(T1));
        assert!(!q.try_admit(T1));
    }

    #[test]
    fn low_weight_tenant_is_granted_every_round() {
        // No starvation: a weight-1 tenant is handed at least one slot per
        // DRR round even against a weight-5 rival with a deep backlog.
        let mut q = AdmissionQueue::new(12)
            .with_tenant(T1, 5)
            .with_tenant(T2, 1);
        for _ in 0..12 {
            q.try_admit(T1);
        }
        for _ in 0..20 {
            q.try_admit(T1);
            q.try_admit(T2);
        }
        q.release(T1, 12);
        assert!(
            q.reserved_of(T2) >= 1,
            "weight-1 tenant starved: reservations {:?}",
            (q.reserved_of(T1), q.reserved_of(T2))
        );
        // ... and proportionality holds within the round: 5:1 over 12 slots.
        assert_eq!((q.reserved_of(T1), q.reserved_of(T2)), (10, 2));
    }

    #[test]
    fn stale_reservations_are_reclaimed_instead_of_wedging_the_room() {
        // T2 sheds, earning reservations, then goes silent forever; T1 must
        // not be locked out of the capacity T2 will never use.
        let mut q = AdmissionQueue::new(4).with_tenant(T1, 1).with_tenant(T2, 1);
        for _ in 0..4 {
            assert!(q.try_admit(T1));
        }
        for _ in 0..4 {
            assert!(!q.try_admit(T2)); // backlog builds
        }
        q.release(T1, 4);
        assert_eq!(q.reserved_of(T2), 4, "all freed room earmarked for T2");
        // T2 never returns. T1's arrivals shed until the staleness valve
        // (capacity consecutive sheds) reclaims the stranded reservations;
        // after that T1 reoccupies the whole room.
        let mut pre_sheds = 0;
        let mut admitted = 0;
        for _ in 0..16 {
            if q.try_admit(T1) {
                admitted += 1;
                if admitted == 4 {
                    break;
                }
            } else if admitted == 0 {
                pre_sheds += 1;
            }
        }
        assert_eq!(admitted, 4, "T1 eventually reoccupies the whole room");
        assert!(
            pre_sheds <= q.capacity,
            "unwedging took {pre_sheds} sheds, more than one capacity turnover"
        );
        assert_eq!(q.reserved_of(T2), 0);
    }

    #[test]
    fn unknown_tenants_register_implicitly_with_weight_one() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.try_admit(TenantId(9)));
        assert_eq!(q.admitted_of(TenantId(9)), 1);
        assert_eq!(q.waiting_of(TenantId(9)), 1);
        assert_eq!(
            q.lanes.iter().map(|l| l.id).collect::<Vec<_>>(),
            vec![TenantId(9)]
        );
    }

    #[test]
    #[should_panic(expected = "more queries than are waiting")]
    fn over_release_is_a_bug() {
        let mut q = AdmissionQueue::new(4);
        q.try_admit(TenantId::DEFAULT);
        q.release(TenantId::DEFAULT, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = AdmissionQueue::new(0);
    }

    #[test]
    #[should_panic(expected = "weight must be at least 1")]
    fn zero_weight_is_rejected() {
        let _ = AdmissionQueue::new(4).with_tenant(T1, 0);
    }
}
