//! SLO-feedback-driven host autoscaling against a linear capacity model.
//!
//! Closes the elasticity loop: offline capacity planning fits sustained QPS ≈
//! `a · hosts + b` and sizes a deployment for a design load; this module
//! runs the same model *online*. An [`Autoscaler`] watches per-query SLO
//! outcomes on the replay clock and, when the windowed miss fraction leaves
//! its band, steps the host count — up under sustained misses, down toward
//! the capacity floor when the deployment is comfortably over-provisioned.
//! The engine applies the step through
//! [`AnnEngine::scale_to`](baselines::engine::AnnEngine::scale_to), which
//! charges shard migration through the interconnect model.
//!
//! Everything here is driven by simulated time handed in by the caller — no
//! wall clock, no ambient randomness — so autoscaled replays stay
//! deterministic.

/// The linear capacity model `sustained_qps ≈ qps_per_host · hosts +
/// base_qps`, as fitted by [`CapacityModel::fit`].
#[derive(Debug, Clone, Copy)]
pub struct CapacityModel {
    /// Marginal sustained QPS each additional host buys.
    pub qps_per_host: f64,
    /// The fit's intercept (coordination overhead makes it negative in
    /// practice: the first host buys less than the marginal rate).
    pub base_qps: f64,
}

impl CapacityModel {
    /// Ordinary-least-squares fit of `(hosts, sustained_qps)` samples.
    ///
    /// # Panics
    /// Panics on fewer than two samples or a degenerate (single-x) design.
    pub fn fit(samples: &[(f64, f64)]) -> Self {
        assert!(samples.len() >= 2, "a line needs at least two samples");
        let n = samples.len() as f64;
        let sx: f64 = samples.iter().map(|(x, _)| x).sum();
        let sy: f64 = samples.iter().map(|(_, y)| y).sum();
        let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = samples.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        assert!(
            denom.abs() > f64::EPSILON,
            "need at least two distinct host counts"
        );
        let a = (n * sxy - sx * sy) / denom;
        let b = (sy - a * sx) / n;
        Self {
            qps_per_host: a,
            base_qps: b,
        }
    }

    /// The fewest hosts predicted to sustain `qps` (at least 1).
    pub(crate) fn hosts_for(&self, qps: f64) -> usize {
        if self.qps_per_host <= 0.0 {
            return 1;
        }
        let hosts = (qps - self.base_qps) / self.qps_per_host;
        (hosts.ceil().max(1.0)) as usize
    }
}

/// A windowed, hysteresis-stepped host-count controller.
///
/// Feed it per-query outcomes with `observe` (completion —
/// or shed — time plus whether the query missed its SLO; a shed query always
/// counts as a miss), then poll `decide` as simulated time
/// advances. One step per decision, bounded cooldown between steps, and the
/// capacity model's floor for the offered load keeps scale-down from
/// thrashing below what the design load needs.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    model: CapacityModel,
    /// The design load the deployment must keep sustaining.
    offered_qps: f64,
    /// Minimum simulated seconds between steps.
    cooldown_s: f64,
    min_hosts: usize,
    max_hosts: usize,
    current: usize,
    last_scale_at: f64,
    /// `(time, missed)` observations still inside the window.
    window: Vec<(f64, bool)>,
}

impl Autoscaler {
    /// Fewest windowed observations before the miss fraction is trusted.
    const MIN_SAMPLES: usize = 20;
    /// Windowed miss fraction above which the controller steps up.
    const MISS_TARGET: f64 = 0.01;
    /// Sliding observation window, simulated seconds.
    const WINDOW_S: f64 = 5.0;

    /// A controller holding `initial` hosts within `[min_hosts, max_hosts]`,
    /// sized against `model` for the design load `offered_qps`, with a 1 %
    /// miss target over a 5 s window and a default 10 s cooldown.
    pub fn new(
        model: CapacityModel,
        offered_qps: f64,
        initial: usize,
        min_hosts: usize,
        max_hosts: usize,
    ) -> Self {
        assert!(min_hosts >= 1 && min_hosts <= max_hosts, "bad host bounds");
        Self {
            model,
            offered_qps,
            cooldown_s: 10.0,
            min_hosts,
            max_hosts,
            current: initial.clamp(min_hosts, max_hosts),
            last_scale_at: f64::NEG_INFINITY,
            window: Vec::new(),
        }
    }

    /// Re-syncs the believed host count with the engine's actual one (called
    /// once when the controller is attached to a running deployment).
    pub(crate) fn sync(&mut self, hosts: usize) {
        self.current = hosts.clamp(self.min_hosts, self.max_hosts);
    }

    /// Records one query outcome at simulated time `t`.
    pub(crate) fn observe(&mut self, t: f64, missed: bool) {
        self.window.push((t, missed));
    }

    /// The windowed miss fraction at `now`, once enough samples are in.
    fn miss_fraction(&mut self, now: f64) -> Option<f64> {
        let horizon = now - Self::WINDOW_S;
        self.window.retain(|&(t, _)| t > horizon);
        if self.window.len() < Self::MIN_SAMPLES {
            return None;
        }
        let missed = self.window.iter().filter(|&&(_, m)| m).count();
        Some(missed as f64 / self.window.len() as f64)
    }

    /// Steps the host count if the windowed feedback warrants it, returning
    /// the new target. `None` means hold (cooldown, not enough samples, or
    /// the miss fraction is inside the band).
    pub(crate) fn decide(&mut self, now: f64) -> Option<usize> {
        if now - self.last_scale_at < self.cooldown_s {
            return None;
        }
        let miss = self.miss_fraction(now)?;
        let floor = self
            .model
            .hosts_for(self.offered_qps)
            .clamp(self.min_hosts, self.max_hosts);
        let target = if miss > Self::MISS_TARGET {
            (self.current + 1).min(self.max_hosts)
        } else if miss <= Self::MISS_TARGET / 4.0 && self.current > floor {
            self.current - 1
        } else {
            self.current
        };
        if target == self.current {
            return None;
        }
        self.current = target;
        self.last_scale_at = now;
        // A step resets the evidence: the old window described the old size.
        self.window.clear();
        Some(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_an_exact_line() {
        let samples: Vec<(f64, f64)> = (1..=6)
            .map(|h| (h as f64, 300.0 * h as f64 - 50.0))
            .collect();
        let model = CapacityModel::fit(&samples);
        assert!((model.qps_per_host - 300.0).abs() < 1e-9);
        assert!((model.base_qps + 50.0).abs() < 1e-9);
        assert_eq!(model.hosts_for(1150.0), 4);
        assert_eq!(model.hosts_for(1151.0), 5, "partial hosts round up");
        assert_eq!(model.hosts_for(-1e9), 1, "never fewer than one host");
    }

    fn model() -> CapacityModel {
        CapacityModel {
            qps_per_host: 100.0,
            base_qps: 0.0,
        }
    }

    /// A controller on [`model`] within 1..=8 hosts and a `cooldown_s` cooldown.
    fn autoscaler(offered_qps: f64, initial: usize, cooldown_s: f64) -> Autoscaler {
        Autoscaler {
            cooldown_s,
            ..Autoscaler::new(model(), offered_qps, initial, 1, 8)
        }
    }

    #[test]
    fn sustained_misses_step_the_host_count_up() {
        let mut scaler = autoscaler(200.0, 2, 1.0);
        for i in 0..40 {
            scaler.observe(i as f64 * 0.1, i % 2 == 0); // 50 % misses
        }
        assert_eq!(scaler.decide(4.0), Some(3));
        // Cooldown holds the next step even though misses continue.
        for i in 0..40 {
            scaler.observe(4.0 + i as f64 * 0.01, true);
        }
        assert_eq!(scaler.decide(4.5), None, "cooldown");
        assert_eq!(scaler.decide(5.1), Some(4), "steps again after cooldown");
        assert_eq!(scaler.current, 4);
    }

    #[test]
    fn a_healthy_overprovisioned_deployment_steps_down_to_the_floor() {
        // Design load 200 QPS needs 2 hosts; we hold 4 and never miss.
        let mut scaler = autoscaler(200.0, 4, 1.0);
        let mut now = 0.0;
        for round in 0..10 {
            for i in 0..30 {
                scaler.observe(now + i as f64 * 0.01, false);
            }
            now += 2.0;
            let decision = scaler.decide(now);
            if round < 2 {
                assert_eq!(decision, Some(4 - round - 1), "steps toward the floor");
            } else {
                assert_eq!(decision, None, "holds at the capacity floor");
                assert_eq!(scaler.current, 2);
            }
        }
    }

    #[test]
    fn too_few_samples_never_trigger_a_step() {
        let mut scaler = autoscaler(200.0, 2, 0.0);
        for i in 0..(Autoscaler::MIN_SAMPLES - 1) {
            scaler.observe(i as f64 * 0.001, true);
        }
        assert_eq!(scaler.decide(1.0), None);
        scaler.observe(0.5, true);
        assert_eq!(scaler.decide(1.0), Some(3), "the 20th sample tips it");
    }

    #[test]
    fn bounds_are_respected() {
        let mut scaler = autoscaler(1e6, 8, 0.0);
        for i in 0..40 {
            scaler.observe(i as f64 * 0.01, true);
        }
        assert_eq!(scaler.decide(1.0), None, "already at max_hosts");
        let mut down = autoscaler(0.0, 1, 0.0);
        for i in 0..40 {
            down.observe(i as f64 * 0.01, false);
        }
        assert_eq!(down.decide(1.0), None, "already at min_hosts");
    }
}
