// Atomic-discipline violations: a missing ordering, an unwaived Relaxed,
// an Acquire-side publish, and a one-sided Release.
use std::sync::atomic::{AtomicU64, Ordering};

struct Sh {
    progress: AtomicU64,
    scratch: AtomicU64,
    flag: AtomicU64,
    mark: AtomicU64,
    beacon: AtomicU64,
}

fn publish(sh: &Sh, v: u64) {
    sh.progress.store(v, Ordering::Release);
    sh.flag.store(v);
    sh.scratch.fetch_add(1, Ordering::Relaxed);
    sh.mark.swap(v, Ordering::Acquire);
    sh.beacon.store(v, Ordering::Release);
}

fn consume(sh: &Sh) -> u64 {
    let m = sh.mark.load(Ordering::Acquire);
    sh.progress.load(Ordering::Acquire) + m
}

#[cfg(test)]
mod tests {
    #[test]
    fn relaxed_is_fine_in_tests() {
        let sh = super::Sh {
            progress: Default::default(),
            scratch: Default::default(),
            flag: Default::default(),
            mark: Default::default(),
            beacon: Default::default(),
        };
        sh.scratch.store(1, std::sync::atomic::Ordering::Relaxed);
    }
}
