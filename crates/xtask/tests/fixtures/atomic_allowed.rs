// A Relaxed counter sanctioned by a waiver
// naming the fence that sequences it.
use std::sync::atomic::{AtomicU64, Ordering};

struct Sh {
    progress: AtomicU64,
    retries: AtomicU64,
}

fn publish(sh: &Sh, v: u64) {
    // lint: allow(atomic-discipline) reason=monotonic retry counter; visibility is sequenced by the progress Release store below
    sh.retries.fetch_add(1, Ordering::Relaxed);
    sh.progress.store(v, Ordering::Release);
}

fn consume(sh: &Sh) -> u64 {
    sh.progress.load(Ordering::Acquire)
}
