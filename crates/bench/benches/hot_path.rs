//! Hot-path micro benches: the three paths the cycle loop spends its
//! time in — the FR-FCFS issue scan in the memory controller, the L2
//! slice lookup pipeline, and a whole-kernel tiny run (the end-to-end
//! canary `scripts/bench_smoke` runs in CI).

use ccraft_bench::{bench_cfg, bench_trace};
use ccraft_core::factory::{run_scheme, SchemeKind};
use ccraft_sim::config::GpuConfig;
use ccraft_sim::dram::MapOrder;
use ccraft_sim::mem_ctrl::{DramRequest, DramTag, MemCtrl};
use ccraft_sim::msg::L2Request;
use ccraft_sim::protection::{ChannelInterleave, NoProtection, ProtectionScheme};
use ccraft_sim::types::{AccessKind, PhysLoc, SmId, TrafficClass};
use ccraft_sim::{l2::L2Slice, types::Cycle};
use ccraft_workloads::Workload;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

/// Transactions pushed through the memory controller per iteration.
const MC_REQS: u64 = 4096;
/// Read accesses pushed through the L2 slice per iteration.
const L2_ACCESSES: u64 = 4096;
/// Distinct atoms the L2 bench cycles over (fits in the tiny slice, so
/// steady state is lookup-hit dominated).
const L2_FOOTPRINT: u64 = 256;

/// Drains a mixed row-hit / row-conflict read stream through one memory
/// controller: exercises `pick_and_issue` (the FR-FCFS scan) plus the
/// completion pop path.
fn mc_issue_drain(cfg: &GpuConfig) -> u64 {
    let mut mc = MemCtrl::new(&cfg.mem, MapOrder::RoBaCo);
    let mut pushed = 0u64;
    let mut done = 0u64;
    let mut now: Cycle = 0;
    while done < MC_REQS {
        while pushed < MC_REQS && mc.can_accept_read() {
            // Alternate a streaming run with a large stride so the queue
            // holds both row hits and conflicts — the scan has real work.
            let atom = if pushed.is_multiple_of(2) {
                pushed / 2
            } else {
                (pushed / 2) * 977 % (MC_REQS * 8)
            };
            mc.push(
                DramRequest {
                    atom,
                    class: TrafficClass::DataRead,
                    tag: DramTag::DemandData { mshr: 0 },
                },
                now,
            );
            pushed += 1;
        }
        mc.tick(now);
        done += mc.pop_completions(now).len() as u64;
        now += 1;
    }
    now
}

/// Streams reads over a small footprint through one L2 slice: after the
/// first pass everything hits, so the timed region is dominated by the
/// lookup path (tag match + MSHR map probe).
fn l2_lookup_stream(cfg: &GpuConfig, scheme: &mut dyn ProtectionScheme) -> u64 {
    let mut slice = L2Slice::new(cfg, 0, MapOrder::RoBaCo, 0);
    let mut resp_buf = Vec::new();
    let mut pushed = 0u64;
    let mut got = 0u64;
    let mut now: Cycle = 0;
    while got < L2_ACCESSES {
        while pushed < L2_ACCESSES && slice.can_accept() {
            slice.push(L2Request {
                loc: PhysLoc::new(0, pushed % L2_FOOTPRINT),
                kind: AccessKind::Read,
                src: SmId(0),
                l1_mshr: 0,
            });
            pushed += 1;
        }
        slice.tick(scheme, now);
        slice.pop_responses_into(now, &mut resp_buf);
        got += resp_buf.len() as u64;
        now += 1;
    }
    now
}

fn bench(c: &mut Criterion) {
    let cfg = bench_cfg();

    let mut g = c.benchmark_group("hot_mem_ctrl");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("fr_fcfs_issue_4k_reads", |b| {
        b.iter(|| mc_issue_drain(&cfg))
    });
    g.finish();

    let mut g = c.benchmark_group("hot_l2_lookup");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("read_stream_4k_hits", |b| {
        b.iter(|| {
            let mut scheme = NoProtection::new(ChannelInterleave::new(
                cfg.mem.channels,
                cfg.mem.interleave_atoms,
            ));
            l2_lookup_stream(&cfg, &mut scheme)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("hot_whole_kernel");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    let trace = bench_trace(Workload::VecAdd);
    for kind in [
        SchemeKind::NoProtection,
        SchemeKind::CacheCraft(ccraft_core::CacheCraftConfig::for_machine(&cfg)),
    ] {
        g.bench_with_input(
            criterion::BenchmarkId::new("tiny_vecadd", kind.name()),
            &kind,
            |b, &kind| b.iter(|| run_scheme(&cfg, kind, &trace)),
        );
    }
    g.finish();

    // Coarse perf canary for CI logs: simulated cycles per wall second on
    // the whole-kernel path.
    let start = Instant::now();
    let stats = run_scheme(&cfg, SchemeKind::NoProtection, &trace);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    println!(
        "whole_kernel tiny_vecadd: {} sim cycles in {:.3}s = {:.0} cycles/sec",
        stats.cycles,
        secs,
        stats.cycles as f64 / secs
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
