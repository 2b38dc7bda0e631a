//! Fixture: the control thread unwraps a worker's completion.

pub fn next_done(rx: &std::sync::mpsc::Receiver<u32>) -> u32 {
    rx.recv().unwrap()
}
