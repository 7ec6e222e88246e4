//! The benchmark's workloads and metrics. `BENCHMARK.json` at the
//! repository root mirrors these tables; `tests/contract.rs` keeps the
//! two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which carry no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it (one line).
    pub why: &'static str,
}

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "sweep-tiny",
        why: "the CI and reproduction sweep (exp-all --size tiny, 716 cells); tiny cells make per-cell fixed costs dominate: checkpoint rewrites, CSV persistence, process start",
    },
    WorkloadInfo {
        name: "main-read",
        why: "the F4 main matrix on read-heavy kernels (write fraction <= 0.17) at full size; simulator-bound, stressing SM/L1/L2 lookups and the ECC-fetch path (C1, C2)",
    },
    WorkloadInfo {
        name: "main-write",
        why: "the F4 main matrix on write-heavy kernels (write fraction 0.25-0.89) at full size; the same layers on writes: partial-write RMW, C3 reconstruction, ECC write coalescing",
    },
    WorkloadInfo {
        name: "serve-resubmit",
        why: "the ccx submit path against an in-process daemon: one cold sweep, 13 single-cell seed overrides and warm resubmissions; the simulator runs only on cache misses",
    },
];

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [Metric; 5] = [
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    e2e("sim_mcycles_per_s", "Mcycle/s", Better::Higher, 0.25),
    e2e("cachecraft_norm_perf", "ratio", Better::Higher, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [Metric; 50] = [
    // The operations themselves, traced, and the process that ran them.
    layer("trace.op_ms_p50", "ms", Better::Lower),
    layer("proc.user_cpu_s_per_op", "s", Better::Lower),
    layer("proc.sys_cpu_s_per_op", "s", Better::Lower),
    layer("proc.write_mb_per_op", "MB", Better::Lower),
    layer("proc.write_calls_per_op", "count", Better::Lower),
    // ccraft-workloads: trace generation.
    layer("workloads.generate_ms_p50", "ms", Better::Lower),
    layer("workloads.accesses", "count", Better::Lower),
    layer("workloads.self_share", "ratio", Better::Lower),
    // ccraft-core: scheme construction and CacheCraft's own counters.
    layer("core.build_ms_p50", "ms", Better::Lower),
    layer("core.ecc_traffic_share", "ratio", Better::Lower),
    layer("core.ecc_fetch_hit_rate", "ratio", Better::Higher),
    layer("core.fragment_store_hits", "count", Better::Higher),
    layer("core.reconstructed_writebacks", "count", Better::Higher),
    layer("core.coalesced_ecc_writes", "count", Better::Higher),
    layer("core.self_share", "ratio", Better::Lower),
    // ccraft-sim: the cycle loop, plain and profiled.
    layer("sim.simulate_ms_p50", "ms", Better::Lower),
    layer("sim.host_ns_per_cycle", "ns", Better::Lower),
    layer("sim.cycles", "count", Better::Lower),
    layer("sim.l2_hit_rate", "ratio", Better::Higher),
    layer("sim.row_hit_rate", "ratio", Better::Higher),
    layer("sim.sm_share", "ratio", Better::Lower),
    layer("sim.l1_share", "ratio", Better::Lower),
    layer("sim.xbar_share", "ratio", Better::Lower),
    layer("sim.l2_share", "ratio", Better::Lower),
    layer("sim.mc_share", "ratio", Better::Lower),
    layer("sim.dram_share", "ratio", Better::Lower),
    layer("sim.flush_share", "ratio", Better::Lower),
    layer("sim.idle_probe_share", "ratio", Better::Lower),
    layer("sim.other_share", "ratio", Better::Lower),
    layer("sim.idle_skip_frac", "ratio", Better::Higher),
    layer("sim.sm_sleep_hit_rate", "ratio", Better::Higher),
    layer("sim.scan_memo_hit_rate", "ratio", Better::Higher),
    layer("sim.profile_overhead", "ratio", Better::Lower),
    layer("sim.self_share", "ratio", Better::Lower),
    // ccraft-harness: the result cache and the durable store.
    layer("harness.cache_insert_ms_p50", "ms", Better::Lower),
    layer("harness.cache_lookup_us_p50", "us", Better::Lower),
    layer("harness.cache_lookup_us_p90", "us", Better::Lower),
    layer("harness.store_write_ms_p50", "ms", Better::Lower),
    layer("harness.store_read_ms_p50", "ms", Better::Lower),
    layer("harness.cache_hits", "count", Better::Higher),
    layer("harness.cache_misses", "count", Better::Lower),
    layer("harness.cache_negative_hits", "count", Better::Higher),
    layer("harness.cache_inserts", "count", Better::Lower),
    layer("harness.self_share", "ratio", Better::Lower),
    // ccraft-serve: the client calls of one job.
    layer("serve.cold_job_ms", "ms", Better::Lower),
    layer("serve.submit_ms_p50", "ms", Better::Lower),
    layer("serve.wait_ms_p50", "ms", Better::Lower),
    layer("serve.fetch_ms_p50", "ms", Better::Lower),
    layer("serve.override_job_ms", "ms", Better::Lower),
    layer("serve.self_share", "ratio", Better::Lower),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}
