//! Fixture: a malformed spec is an `Err` for the binary to report, not a
//! panic.

pub fn parse_rate(spec: &str) -> Result<f64, String> {
    spec.parse().map_err(|_| format!("'{spec}' is not a number"))
}
