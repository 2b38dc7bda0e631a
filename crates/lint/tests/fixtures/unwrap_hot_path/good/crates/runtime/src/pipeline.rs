//! Fixture: a disconnected worker channel ends the loop instead of
//! panicking the control thread.

pub fn next_done(rx: &std::sync::mpsc::Receiver<u32>) -> Option<u32> {
    rx.recv().ok()
}
