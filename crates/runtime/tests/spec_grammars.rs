//! The `serve` binary's three spec grammars — `--tenants`, `--mutations`
//! and `--fault` — take text straight from the command line, so they must
//! return `Ok` or `Err` on *any* string and never panic (a panic is exit
//! 101, which CI's must-fail checks would not tell from a clean rejection).
//!
//! The vendored proptest has no string strategy, so hostile input is built
//! from a grammar-heavy fragment alphabet: separators, keys, and the numbers
//! parsers trip over (`nan`, `inf`, negatives, integers past `u64`).

use proptest::prelude::*;
use upanns::replica::FaultSchedule;
use upanns_runtime::scenario::{
    parse_mutations, parse_tenants, DEFAULT_FAULT, DEFAULT_MUTATIONS, DEFAULT_TENANTS,
    THREADED_TENANTS,
};

const FRAGMENTS: [&str; 40] = [
    ";",
    ",",
    "=",
    "x",
    "+",
    ":",
    "@",
    "..",
    " ",
    "\t",
    "-",
    ".",
    "",
    "a",
    "tight",
    "qps",
    "queries",
    "slo-ms",
    "weight",
    "repeat",
    "mix",
    "upsert",
    "delete",
    "seed",
    "none",
    "0",
    "1",
    "7",
    "10x8",
    "0.5",
    "1e3",
    "-1",
    "nan",
    "NaN",
    "inf",
    "-inf",
    "1e400",
    "99999999999999999999",
    "4294967296",
    "é",
];

fn hostile(tokens: &[usize]) -> String {
    tokens.iter().map(|&t| FRAGMENTS[t]).collect()
}

/// Runs all three parsers over `spec`; whatever one accepts must be safe to
/// hand to the stream generators (which assert exactly these conditions).
fn parse_everything(spec: &str) {
    if let Ok(mix) = parse_tenants(spec) {
        assert_eq!(mix.tenants.len(), spec.split(';').count(), "{spec:?}");
        for tenant in &mix.tenants {
            let stream = &tenant.stream;
            assert!(
                stream.mean_qps > 0.0 && stream.mean_qps.is_finite(),
                "{spec:?}"
            );
            assert!(
                stream.workload.num_queries >= 1 && tenant.weight >= 1,
                "{spec:?}"
            );
            assert!((0.0..=1.0).contains(&stream.repeat_fraction), "{spec:?}");
            assert!(
                stream.slo_p99_s.is_none_or(|s| s > 0.0 && s.is_finite()),
                "{spec:?}"
            );
            assert!(!tenant.option_mix.is_empty(), "{spec:?}");
            assert!(tenant
                .option_mix
                .iter()
                .all(|&(k, nprobe)| k >= 1 && nprobe >= 1));
        }
    }
    if let Ok(Some(rates)) = parse_mutations(spec) {
        for rate in [rates.upsert_qps, rates.delete_qps] {
            assert!(rate >= 0.0 && rate.is_finite(), "{spec:?}");
        }
        assert!(rates.upsert_qps + rates.delete_qps > 0.0, "{spec:?}");
    }
    if let Ok(faults) = FaultSchedule::parse(spec) {
        for outage in faults.events() {
            assert!(
                0.0 <= outage.down_at && outage.down_at < outage.up_at,
                "{spec:?}"
            );
            assert!(outage.up_at.is_finite(), "{spec:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Arbitrary text — alone, and spliced after a valid prefix of each
    /// grammar so the deeper states are reached — is parsed or rejected,
    /// never a panic.
    #[test]
    fn arbitrary_specs_never_panic(
        tokens in prop::collection::vec(0usize..FRAGMENTS.len(), 0..24),
    ) {
        let spec = hostile(&tokens);
        parse_everything(&spec);
        for prefix in ["a:qps=1,", "a:qps=1;b:", "upsert=1,", "1@2..3,", "1@"] {
            parse_everything(&format!("{prefix}{spec}"));
        }
    }

    /// A well-formed `--tenants` spec parses to exactly the tenants it
    /// names, ids by position.
    #[test]
    fn valid_tenant_specs_round_trip(
        tenants in prop::collection::vec(
            (1u32..5_000, 1usize..3_000, 1u32..9, prop::collection::vec((1usize..64, 1usize..64), 0..3)),
            1..5,
        ),
        slo_ms in 0u32..60_000,
    ) {
        let entries: Vec<String> = tenants
            .iter()
            .enumerate()
            .map(|(i, (deci_qps, queries, weight, mix))| {
                let mut entry = format!("t{i}:qps={},queries={queries},weight={weight}", *deci_qps as f64 / 10.0);
                if slo_ms > 0 {
                    entry += &format!(",slo-ms={slo_ms}");
                }
                if !mix.is_empty() {
                    let tiers: Vec<String> = mix.iter().map(|(k, nprobe)| format!("{k}x{nprobe}")).collect();
                    entry += &format!(",mix={}", tiers.join("+"));
                }
                entry
            })
            .collect();
        let parsed = parse_tenants(&entries.join(";")).expect("a well-formed spec parses");
        prop_assert_eq!(parsed.tenants.len(), tenants.len());
        for (i, (tenant, (deci_qps, queries, weight, mix))) in parsed.tenants.iter().zip(&tenants).enumerate() {
            prop_assert_eq!(tenant.id.0 as usize, i + 1);
            prop_assert_eq!(&tenant.name, &format!("t{i}"));
            prop_assert_eq!(tenant.stream.mean_qps, *deci_qps as f64 / 10.0);
            prop_assert_eq!(tenant.stream.workload.num_queries, *queries);
            prop_assert_eq!(tenant.weight, *weight);
            prop_assert_eq!(tenant.stream.slo_p99_s, (slo_ms > 0).then(|| slo_ms as f64 / 1e3));
            let expected_mix = if mix.is_empty() { vec![(10, 8)] } else { mix.clone() };
            prop_assert_eq!(&tenant.option_mix, &expected_mix);
        }
    }

    /// A well-formed `--mutations` spec parses to its rates; all-zero rates
    /// are the one well-formed spec that is rejected (that is `none`).
    #[test]
    fn valid_mutation_specs_round_trip(upsert in 0u32..500, delete in 0u32..500, seed in 0u64..u64::MAX) {
        let parsed = parse_mutations(&format!("upsert={upsert},delete={delete},seed={seed}"));
        if upsert == 0 && delete == 0 {
            prop_assert!(parsed.is_err());
        } else {
            let rates = parsed.expect("a well-formed spec parses").expect("not 'none'");
            prop_assert_eq!(
                (rates.upsert_qps, rates.delete_qps, rates.seed),
                (upsert as f64, delete as f64, seed)
            );
        }
    }

    /// A well-formed `--fault` spec parses to its outages, in order.
    #[test]
    fn valid_fault_specs_round_trip(
        outages in prop::collection::vec((0usize..8, 0u32..1_000, 1u32..1_000), 1..4),
    ) {
        let parts: Vec<String> = outages
            .iter()
            .map(|(host, down, length)| format!("{host}@{down}..{}", down + length))
            .collect();
        let faults = FaultSchedule::parse(&parts.join(",")).expect("a well-formed spec parses");
        let parsed: Vec<(usize, f64, f64)> =
            faults.events().iter().map(|e| (e.host, e.down_at, e.up_at)).collect();
        let expected: Vec<(usize, f64, f64)> = outages
            .iter()
            .map(|&(host, down, length)| (host, down as f64, (down + length) as f64))
            .collect();
        prop_assert_eq!(parsed, expected);
    }
}

#[test]
fn the_committed_defaults_parse() {
    for (spec, tenants) in [(DEFAULT_TENANTS, 2), (THREADED_TENANTS, 2)] {
        assert_eq!(
            parse_tenants(spec)
                .expect("a committed default")
                .tenants
                .len(),
            tenants
        );
    }
    let rates = parse_mutations(DEFAULT_MUTATIONS).expect("a committed default");
    assert_eq!(
        rates.map(|r| (r.upsert_qps, r.delete_qps, r.seed)),
        Some((24.0, 8.0, 77))
    );
    assert_eq!(parse_mutations("none"), Ok(None));
    assert_eq!(
        FaultSchedule::parse(DEFAULT_FAULT)
            .expect("a committed default")
            .events()
            .len(),
        1
    );
}

/// Every malformed spec in CI's must-fail list is an `Err` (which the binary
/// turns into `error: ...` and exit 2).
#[test]
fn ci_must_fail_specs_are_errors() {
    for spec in [
        "broken",
        "a:qps=1,bogus=2",
        "",
        "a:",
        "a:qps=0",
        "a:qps=1,mix=0x4",
        "a:qps=1;",
    ] {
        assert!(parse_tenants(spec).is_err(), "--tenants {spec:?}");
    }
    for spec in [
        "broken",
        "upsert=x",
        "bogus=1",
        "upsert=0,delete=0",
        "",
        "upsert=-1",
        "upsert=nan",
    ] {
        assert!(parse_mutations(spec).is_err(), "--mutations {spec:?}");
    }
    for spec in ["bogus", "1@9..5", "", "1@nan..5", "-1@1..2", "1@-3..2"] {
        assert!(FaultSchedule::parse(spec).is_err(), "--fault {spec:?}");
    }
}
