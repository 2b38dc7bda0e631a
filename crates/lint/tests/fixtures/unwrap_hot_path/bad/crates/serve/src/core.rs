//! Fixture: the serving core trusts a ledger slot to exist.

pub fn answered(ledger: &[bool], index: usize) -> bool {
    *ledger.get(index).expect("the stream is that long")
}
