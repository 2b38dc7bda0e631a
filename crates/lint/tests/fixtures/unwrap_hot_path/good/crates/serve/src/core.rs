//! Fixture: an index past the ledger is reported, not panicked on.

pub fn answered(ledger: &[bool], index: usize) -> Option<bool> {
    ledger.get(index).copied()
}
