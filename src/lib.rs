//! Root package of the UpANNS reproduction workspace.
//!
//! It holds the cross-crate examples (`examples/`) and integration tests
//! (`tests/`), which name the member crates directly; the library itself
//! exports nothing.

#![forbid(unsafe_code)]
