//! `StageBreakdown` against the label-keyed map it replaced.
//!
//! The committed records (both `modeled_invariance` goldens,
//! `BENCH_serving.json`, the `figures` tables) were produced when a
//! breakdown was a `BTreeMap<String, f64>`. The oracle below is that map
//! with the operations spelled out the way the engines spelled them, and the
//! property is that no sequence of operations tells the two apart: same
//! stages in the same order with the same bits, same total bits (it is the
//! baselines' modeled `seconds`), same printed text, same emptiness.

use pim_sim::stats::{Stage, StageBreakdown};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write;

type Oracle = BTreeMap<String, f64>;

fn oracle_add(map: &mut Oracle, label: &str, seconds: f64) {
    *map.entry(label.to_string()).or_insert(0.0) += seconds;
}

fn oracle_total(map: &Oracle) -> f64 {
    map.values().sum()
}

/// The loop `UpAnnsEngine` ran per launch: everything but the slot, then the
/// inner stages rescaled to the slot's seconds.
fn oracle_splice(outer: &mut Oracle, slot: &str, inner: &Oracle) {
    let slot_seconds = outer.get(slot).copied().unwrap_or(0.0);
    let mut detailed = Oracle::new();
    for (label, seconds) in outer.iter().filter(|(label, _)| *label != slot) {
        oracle_add(&mut detailed, label, *seconds);
    }
    let inner_total = oracle_total(inner).max(f64::MIN_POSITIVE);
    for (label, seconds) in inner {
        oracle_add(&mut detailed, label, seconds / inner_total * slot_seconds);
    }
    *outer = detailed;
}

fn oracle_display(map: &Oracle) -> String {
    let total = oracle_total(map);
    let mut out = String::new();
    for (stage, secs) in map {
        let pct = if total > 0.0 {
            secs / total * 100.0
        } else {
            0.0
        };
        writeln!(out, "{stage:<24} {secs:>12.6} s  ({pct:>5.1} %)").unwrap();
    }
    writeln!(out, "{:<24} {total:>12.6} s", "total").unwrap();
    out
}

fn assert_same(subject: &StageBreakdown, oracle: &Oracle) {
    let bits = |entries: Vec<(String, f64)>| -> Vec<(String, u64)> {
        entries.into_iter().map(|(l, s)| (l, s.to_bits())).collect()
    };
    let expected: Vec<(String, f64)> = oracle.iter().map(|(l, s)| (l.clone(), *s)).collect();
    assert_eq!(bits(subject.entries()), bits(expected));
    assert_eq!(subject.total().to_bits(), oracle_total(oracle).to_bits());
    assert_eq!(subject.to_string(), oracle_display(oracle));
    assert_eq!(subject.is_empty(), oracle.is_empty());
    for stage in Stage::ALL {
        let expected = oracle.get(stage.label()).copied().unwrap_or(0.0);
        assert_eq!(subject.seconds(stage).to_bits(), expected.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two breakdowns, so that `merge` and `splice` have an other side that
    /// the same sequence has been shaping.
    #[test]
    fn no_sequence_of_operations_tells_the_array_from_the_map(
        ops in prop::collection::vec((0u8..20, 0usize..Stage::COUNT, 0.0f64..10.0), 1..60),
    ) {
        let mut subject = [StageBreakdown::new(), StageBreakdown::new()];
        let mut oracle = [Oracle::new(), Oracle::new()];
        for (op, stage, seconds) in ops {
            let (this, that) = ((op % 2) as usize, ((op + 1) % 2) as usize);
            let stage = Stage::ALL[stage];
            match op / 2 {
                0..=4 => {
                    subject[this].add(stage, seconds);
                    oracle_add(&mut oracle[this], stage.label(), seconds);
                }
                // A stage added with 0.0 is present from then on.
                5 => {
                    subject[this].add(stage, 0.0);
                    oracle_add(&mut oracle[this], stage.label(), 0.0);
                }
                6 | 7 => {
                    let other = subject[that];
                    subject[this].merge(&other);
                    let other = oracle[that].clone();
                    for (label, seconds) in &other {
                        oracle_add(&mut oracle[this], label, *seconds);
                    }
                }
                8 => {
                    let inner = subject[that];
                    subject[this].splice(stage, &inner);
                    let inner = oracle[that].clone();
                    oracle_splice(&mut oracle[this], stage.label(), &inner);
                }
                _ => {
                    subject[this].clear();
                    oracle[this].clear();
                }
            }
            assert_same(&subject[this], &oracle[this]);
        }
    }
}

/// A launch reports its critical DPU's regions as seconds per stage. The
/// kernel context adds `region_cycles × SECONDS_PER_CYCLE` at every region
/// end; the record it replaced was the list of regions, folded after the
/// launch. A region of one tasklet that charges `c` additions and no DMA
/// lasts `c × REVISIT_INTERVAL + barrier` cycles, so the list is known here
/// without asking the context for it.
#[test]
fn a_launch_breakdown_is_the_fold_over_its_regions_in_order() {
    use pim_sim::config::{PimConfig, SECONDS_PER_CYCLE};
    use pim_sim::cost::{TaskletCost, ALU_CYCLES, BARRIER_CYCLES_PER_TASKLET, REVISIT_INTERVAL};
    use pim_sim::host::PimSystem;

    let regions: [(Stage, u64); 7] = [
        (Stage::LutConstruction, 3_000),
        (Stage::ComboSum, 17),
        (Stage::DistanceCalc, 123_457),
        (Stage::TopK, 911),
        (Stage::LutConstruction, 2_999),
        (Stage::DistanceCalc, 7),
        (Stage::TopK, 0),
    ];
    let mut sys = PimSystem::new(PimConfig::small_test());
    let (report, _) = sys.execute(Stage::DpuSearch, |ctx| {
        // DPU 2 runs the whole list, the others a prefix of it.
        let take = if ctx.dpu_id() == 2 { regions.len() } else { 2 };
        for &(stage, adds) in &regions[..take] {
            let tasklet = TaskletCost {
                compute: adds * ALU_CYCLES,
                ..TaskletCost::default()
            };
            ctx.close_region(stage, &[tasklet]);
        }
    });
    assert_eq!(report.critical_dpu, 2);

    let spc = SECONDS_PER_CYCLE;
    let mut expected = Oracle::new();
    let mut total_cycles = 0u64;
    for (stage, adds) in regions {
        let cycles = adds * ALU_CYCLES * REVISIT_INTERVAL + BARRIER_CYCLES_PER_TASKLET;
        total_cycles += cycles;
        oracle_add(&mut expected, stage.label(), cycles as f64 * spc);
    }
    assert_eq!(report.per_dpu_cycles[2], total_cycles);
    assert_same(&report.breakdown, &expected);
}
