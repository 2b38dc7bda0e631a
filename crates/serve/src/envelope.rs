//! The recovery envelope: how deep SLO attainment dips after a host failure
//! and how long it takes to climb back.
//!
//! A replay under a [`FaultSchedule`](upanns::replica::FaultSchedule)
//! produces per-query outcomes — `(arrival, Some(latency))` for answered
//! queries, `(arrival, None)` for shed ones. [`RecoveryEnvelope`] buckets
//! those outcomes by arrival time into an SLO-attainment timeline and
//! summarizes the failure transient with three numbers CI can assert:
//! the pre-failure **baseline** attainment, the **max dip** below it after
//! the failure instant, and the **recovery time** until attainment returns
//! to within [`RECOVERY_TOLERANCE`] of the baseline.

/// How close (absolute attainment fraction) a post-failure bucket must get
/// to the baseline to count as recovered.
pub(crate) const RECOVERY_TOLERANCE: f64 = 0.05;

/// The bucketed SLO-attainment timeline around one failure instant.
#[derive(Debug, Clone)]
pub struct RecoveryEnvelope {
    /// Bucket width in simulated seconds.
    pub bucket_s: f64,
    /// The failure instant the envelope is anchored on.
    pub t_down: f64,
    /// Mean attainment over the buckets that end at or before `t_down`.
    pub baseline_attainment: f64,
    /// Deepest drop below the baseline in any bucket starting at or after
    /// `t_down` (0 when the failure never showed).
    pub max_dip: f64,
    /// Start of the bucket where the deepest dip occurred.
    pub dip_at: f64,
    /// Seconds from `t_down` until the end of the first post-dip bucket
    /// whose attainment is back within `RECOVERY_TOLERANCE` of the
    /// baseline (`f64::INFINITY` when it never recovers).
    pub recovery_s: f64,
    /// Whether attainment recovered within the observed timeline.
    pub recovered: bool,
    /// `(bucket_start, attainment)` per bucket, in time order.
    pub timeline: Vec<(f64, f64)>,
}

impl RecoveryEnvelope {
    /// Builds the envelope from per-query `(arrival, Some(latency) | None)`
    /// outcomes (shed queries are `None` and always count as misses) against
    /// a per-query latency SLO of `slo_s` seconds, anchored on the failure
    /// instant `t_down`, with `bucket_s`-second buckets.
    ///
    /// Returns `None` when there is nothing to measure: no outcomes, or no
    /// complete bucket before `t_down` to establish a baseline.
    pub fn from_outcomes(
        outcomes: &[(f64, Option<f64>)],
        slo_s: f64,
        t_down: f64,
        bucket_s: f64,
    ) -> Option<Self> {
        assert!(bucket_s > 0.0, "bucket width must be positive");
        assert!(slo_s > 0.0, "per-query SLO must be positive");
        if outcomes.is_empty() {
            return None;
        }
        let horizon = outcomes
            .iter()
            .map(|&(a, _)| a)
            .fold(f64::NEG_INFINITY, f64::max);
        let buckets = (horizon / bucket_s).floor() as usize + 1;
        let mut hit = vec![0usize; buckets];
        let mut total = vec![0usize; buckets];
        for &(arrival, latency) in outcomes {
            if arrival < 0.0 {
                continue;
            }
            let b = ((arrival / bucket_s).floor() as usize).min(buckets - 1);
            total[b] += 1;
            if latency.is_some_and(|l| l <= slo_s) {
                hit[b] += 1;
            }
        }
        let timeline: Vec<(f64, f64)> = (0..buckets)
            .filter(|&b| total[b] > 0)
            .map(|b| (b as f64 * bucket_s, hit[b] as f64 / total[b] as f64))
            .collect();

        // Baseline: buckets that end before the failure.
        let before: Vec<f64> = timeline
            .iter()
            .filter(|&&(start, _)| start + bucket_s <= t_down)
            .map(|&(_, a)| a)
            .collect();
        if before.is_empty() {
            return None;
        }
        let baseline = before.iter().sum::<f64>() / before.len() as f64;

        // Dip: the worst bucket at or after the failure instant.
        let mut max_dip = 0.0f64;
        let mut dip_at = t_down;
        for &(start, attainment) in timeline.iter().filter(|&&(s, _)| s + bucket_s > t_down) {
            let dip = (baseline - attainment).max(0.0);
            if dip > max_dip {
                max_dip = dip;
                dip_at = start;
            }
        }

        // Recovery: the first bucket after the dip back within tolerance.
        let mut recovery_s = f64::INFINITY;
        let mut recovered = false;
        if max_dip <= RECOVERY_TOLERANCE {
            // The failure never dented attainment: recovered immediately.
            recovery_s = 0.0;
            recovered = true;
        } else {
            for &(start, attainment) in timeline.iter().filter(|&&(s, _)| s > dip_at) {
                if attainment >= baseline - RECOVERY_TOLERANCE {
                    recovery_s = (start + bucket_s - t_down).max(0.0);
                    recovered = true;
                    break;
                }
            }
        }

        Some(Self {
            bucket_s,
            t_down,
            baseline_attainment: baseline,
            max_dip,
            dip_at,
            recovery_s,
            recovered,
            timeline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` outcomes per second over `[from, to)`, hitting the SLO iff `ok`.
    fn span(outcomes: &mut Vec<(f64, Option<f64>)>, from: f64, to: f64, n: usize, ok: bool) {
        let per = (to - from) / n as f64;
        for i in 0..n {
            let t = from + i as f64 * per;
            outcomes.push((t, if ok { Some(0.1) } else { None }));
        }
    }

    #[test]
    fn a_clean_dip_and_recovery_is_measured() {
        let mut o = Vec::new();
        span(&mut o, 0.0, 20.0, 200, true); // healthy baseline
        span(&mut o, 20.0, 30.0, 100, false); // outage: everything sheds
        span(&mut o, 30.0, 60.0, 300, true); // recovered
        let env = RecoveryEnvelope::from_outcomes(&o, 1.0, 20.0, 5.0).expect("measurable");
        assert!((env.baseline_attainment - 1.0).abs() < 1e-9);
        assert!(
            (env.max_dip - 1.0).abs() < 1e-9,
            "the outage buckets hit 0 attainment"
        );
        assert!(env.dip_at >= 20.0 && env.dip_at < 30.0);
        assert!(env.recovered);
        // Dip bottom is the 20–25 s or 25–30 s bucket; the first healthy
        // bucket after it ends at 35 s ⇒ recovery within 15 s of t_down.
        assert!(
            env.recovery_s > 0.0 && env.recovery_s <= 15.0,
            "{}",
            env.recovery_s
        );
    }

    #[test]
    fn a_failure_absorbed_by_replicas_recovers_immediately() {
        let mut o = Vec::new();
        span(&mut o, 0.0, 60.0, 600, true); // hedging absorbed the outage
        let env = RecoveryEnvelope::from_outcomes(&o, 1.0, 20.0, 5.0).expect("measurable");
        assert_eq!(env.max_dip, 0.0);
        assert!(env.recovered);
        assert_eq!(env.recovery_s, 0.0);
    }

    #[test]
    fn an_unrecovered_outage_reports_infinity() {
        let mut o = Vec::new();
        span(&mut o, 0.0, 20.0, 200, true);
        span(&mut o, 20.0, 60.0, 400, false); // never comes back
        let env = RecoveryEnvelope::from_outcomes(&o, 1.0, 20.0, 5.0).expect("measurable");
        assert!(!env.recovered);
        assert_eq!(env.recovery_s, f64::INFINITY);
        assert!(env.max_dip > 0.9);
    }

    #[test]
    fn latency_misses_count_like_sheds() {
        let mut o = Vec::new();
        span(&mut o, 0.0, 10.0, 100, true);
        // Answered, but 10× over the SLO: a miss, not a hit.
        for i in 0..50 {
            o.push((10.0 + i as f64 * 0.1, Some(10.0)));
        }
        span(&mut o, 15.0, 30.0, 150, true);
        let env = RecoveryEnvelope::from_outcomes(&o, 1.0, 10.0, 5.0).expect("measurable");
        assert!(env.max_dip > 0.9, "slow answers dent attainment");
        assert!(env.recovered);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(RecoveryEnvelope::from_outcomes(&[], 1.0, 10.0, 5.0).is_none());
        // No complete bucket before the failure: no baseline.
        let o = vec![(0.5, Some(0.1)), (1.0, Some(0.1))];
        assert!(RecoveryEnvelope::from_outcomes(&o, 1.0, 0.5, 5.0).is_none());
    }
}
