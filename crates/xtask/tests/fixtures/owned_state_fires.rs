// Fixture: every marked line here must fire `sim-owned-state`.
use std::sync::{Arc, Mutex}; // fires twice: Arc and Mutex
use std::cell::RefCell; // fires: RefCell

static EPOCH_COUNTER: u64 = 0; // fires: static item
static mut SCRATCH: [u64; 4] = [0; 4]; // fires: static mut item

thread_local! {
    // fires on the macro name AND on the inner static item.
    static LANE_ID: std::cell::Cell<u64> = std::cell::Cell::new(0);
}

struct BadSlice {
    queue: Arc<Mutex<Vec<u64>>>, // fires twice: Arc and Mutex
    memo: RefCell<Vec<u64>>,     // fires: RefCell
}

fn lookup() -> &'static str {
    // A plain `'static` lifetime must NOT fire: it lexes as a lifetime,
    // not an item keyword.
    let table: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new(); // fires: OnceLock
    let _ = table;
    "ok"
}

struct Progress {
    through: std::sync::atomic::AtomicU64, // fires: AtomicU64
}
