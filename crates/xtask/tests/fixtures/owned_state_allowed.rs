// Fixture: sim-owned-state violations fully covered by verified allow
// directives. Every directive must carry a reason; a reason-less or
// unused directive is a hard error (see lint_fixtures.rs).
// lint: allow(sim-owned-state) reason=codec dispatch table built once before any lane spawns and never written after
static DECODE_TABLE: [u8; 16] = [0; 16];

struct DebugProbe {
    // lint: allow(sim-owned-state) reason=debug-only probe compiled out of release; never shared across lanes
    trace: std::cell::RefCell<Vec<u64>>,
}
