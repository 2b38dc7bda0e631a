//! Fixture: a spec parser unwraps a number typed on the command line.

pub fn parse_rate(spec: &str) -> f64 {
    spec.parse().expect("--mutations: a number")
}
