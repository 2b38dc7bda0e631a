//! The `serve` binary's must-fail contract: a flag value, name or spec the
//! bench cannot honor exits with status **exactly 2** and an `error:` line,
//! before any fixture is built — "nonzero" would let a panic (101) pass for
//! a rejection, and a rejection after the fixture would cost its build time.
//!
//! Nine of these cases used to panic (in the flag parser, or later in an
//! assert deep inside `annkit::workload`), the out-of-range `--fault`
//! host used to exit 0 with a row that "recovered" from an outage on a host
//! that never existed, and a duplicate tenant name used to exit 0 with two
//! tenant rows nothing could tell apart.
//!
//! The other half: a value the parser accepts runs. The largest `--hosts`
//! used to panic in PQ training, when every host trained its own shard.

use std::process::Command;

const MUST_FAIL: [&[&str]; 27] = [
    &["--engines", "bogus"],
    &["--policy", "bogus"],
    &["--tenants", "broken"],
    &["--tenants", "a:qps=1,bogus=2"],
    // Ids are positional, so only the name tells the two rows apart.
    &["--tenants", "a:qps=1;a:qps=2"],
    &["--runtime", "bogus"],
    &["--workers", "0"],
    &["--fault", "bogus"],
    &["--fault", "1@9..5"],
    &["--fault", "7@20..45"],
    &["--replicas", "0"],
    &["--replicas", "99"],
    &["--hedge-ms", "0"],
    &["--mutations", "broken"],
    &["--mutations", "upsert=x"],
    &["--mutations", "bogus=1"],
    &["--mutations", "upsert=0,delete=0"],
    &["--queries", "abc"],
    &["--queries"],
    &["--qps", "x"],
    &["--hosts", "x"],
    &["--json"],
    &["--slo-ms", "0"],
    &["--repeat", "7"],
    &["--qps", "0"],
    &["--queries", "0"],
    // The work scale belongs to the fixture, not to a flag.
    &["--work-scale", "4000"],
];

#[test]
fn malformed_flags_names_and_specs_exit_with_status_exactly_2() {
    for args in MUST_FAIL {
        let output = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .output()
            .expect("the serve binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "serve {args:?}: stderr: {stderr}"
        );
        assert!(
            stderr.starts_with("error:"),
            "serve {args:?}: stderr: {stderr}"
        );
        // `main` announces the fixture on stderr before building it: a
        // rejection that comes first is the only line there (which is why
        // the whole table runs in well under a second).
        assert_eq!(
            stderr.lines().count(),
            1,
            "serve {args:?}: stderr: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "serve {args:?} printed rows before rejecting"
        );
    }
}

#[test]
fn the_largest_host_count_serves_and_writes_an_audited_record() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_hosts16.json");
    let _ = std::fs::remove_file(&path);
    let output = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--engines",
            "multihost",
            "--hosts",
            "16",
            "--queries",
            "200",
        ])
        .args(["--mutations", "none", "--json"])
        .arg(&path)
        .output()
        .expect("the serve binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    // `--json` writes nothing unless the rows pass `record::audit`.
    let record = std::fs::read_to_string(&path).expect("the audited record was written");
    assert!(
        record.contains("\"UpANNS x16 hosts r1 (16 shards)\""),
        "{record}"
    );
}
