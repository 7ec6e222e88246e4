// A clean publish/consume protocol: a Release store of a progress
// watermark paired with an Acquire load of the same field.
use std::sync::atomic::{AtomicU64, Ordering};

struct Progress {
    through: AtomicU64,
}

fn publish(p: &Progress, t: u64) {
    p.through.store(t + 1, Ordering::Release);
}

fn observe(p: &Progress) -> u64 {
    p.through.load(Ordering::Acquire)
}
