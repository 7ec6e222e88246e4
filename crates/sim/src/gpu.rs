//! Top-level simulator: wires SMs, crossbar, L2 slices and memory
//! controllers together and runs a kernel trace to completion.
//!
//! The pipeline per cycle (reverse order, so data moves one stage per
//! cycle):
//!
//! 1. every awake L2 slice ticks (controller scheduling, fills,
//!    write-backs, request pipeline); each response it makes enters the
//!    crossbar in that tick, departing `l2.latency` cycles later;
//! 2. the crossbar delivers matured requests to slices and matured
//!    responses to L1s, visiting only the endpoints with a message due;
//! 3. every awake SM ticks (L1 pipeline, LSU streaming, warp scheduling).
//!
//! Which SMs and slices are awake is kept by a wake calendar (see the
//! `calendar` module): a component whose tick would provably do nothing
//! but count a stall sleeps until its memo wake or until a delivery or
//! the flush wakes it, and the ticks it skipped are settled in bulk
//! later. When everything sleeps and no message is due, the loop jumps
//! to the next wake.
//!
//! When every warp retires, the simulator enters a *flush phase*: the
//! protection scheme's buffers are flushed and all dirty L2 state is
//! written back, so DRAM-traffic accounting is complete and fair across
//! schemes (a scheme cannot hide write traffic in on-chip buffers).
//! Simulation ends when all queues drain, or at `max_cycles` (reported via
//! [`SimStats::timed_out`]).

use crate::calendar::Calendar;
use crate::config::GpuConfig;
use crate::dram::MapOrder;
use crate::faults::{FaultConfig, FaultInjector};
#[cfg(feature = "check-invariants")]
use crate::invariants::{progress_signature, Oracle};
use crate::l1::L1Cache;
use crate::l2::L2Slice;
use crate::mem_ctrl::IssueEvent;
use crate::protection::ProtectionScheme;
use crate::sm::{SmCore, StallReason};
use crate::stats::SimStats;
use crate::trace::KernelTrace;
use crate::types::{Cycle, SmId, TrafficClass};
use crate::xbar::Crossbar;
use ccraft_telemetry::chrome_trace::{ChromeTrace, TraceEvent};
use ccraft_telemetry::profiler::{ChannelLoad, HostStamp, MemoStats, PhaseTimer, SimProfile};
use ccraft_telemetry::{Histogram, Sampler, TelemetryConfig, MAX_TRACE_EVENTS};

/// Result of a [`simulate`] run: the stats (with the histogram, timeline
/// and fault counters attached when those observers were on) plus the
/// Chrome trace when event tracing was on and the self-profile when
/// profiling was on.
#[derive(Debug)]
pub struct SimOutput {
    /// Aggregate statistics; `latency_hist` / `timeline` are populated
    /// when telemetry was on, `faults` when injection was on.
    pub stats: SimStats,
    /// Collected trace events, when telemetry was
    /// [`Full`](TelemetryConfig::Full).
    pub trace: Option<ChromeTrace>,
    /// Self-profile (host-time attribution, memo hit rates, per-channel
    /// load), when profiling was requested.
    pub profile: Option<SimProfile>,
}

/// Live profiling state threaded through the cycle loop by [`simulate`]
/// when [`Observe::profile`] is on. All host-time reads go through the
/// lap timer `t`; laps are attributed to the phase that just ran.
#[derive(Debug)]
struct LoopProf {
    /// Stamp taken before the first cycle (whole-run wall time).
    start: HostStamp,
    /// The per-phase lap timer.
    t: PhaseTimer,
    /// Host ns per channel's slice domain (L2 slice + MC + DRAM).
    slice_ns: Vec<u64>,
    /// Host ns in crossbar request delivery (a response is sent inside
    /// its slice tick, so sending one counts in `slice_ns`).
    xbar_ns: u64,
    /// Host ns in the response-accept loop (L1 fill path).
    l1_ns: u64,
    /// Host ns in the SM tick loop.
    sm_ns: u64,
    /// Host ns in the issue-log observers and epoch sampling; the
    /// residual (total minus every attributed bucket) is folded in at the
    /// end.
    other_ns: u64,
    /// Host ns in the termination scan + flush phase.
    flush_ns: u64,
    /// Host ns in the wake calendar's timer scans and the idle
    /// fast-forward check.
    probe_ns: u64,
    /// SM ticks run (memo misses); the hits, one per SM and visited
    /// cycle that it slept through, are derived at the end.
    sm_sleep: MemoStats,
    /// Slice ticks run (memo misses); hits derived as for `sm_sleep`.
    slice_sleep: MemoStats,
    /// Idle fast-forward span lengths, in cycles.
    idle_spans: Histogram,
    /// Idle fast-forward jumps taken.
    idle_jumps: u64,
    /// Simulated cycles skipped by idle fast-forward.
    idle_cycles: u64,
}

/// Trace-event track ids: SM `i` gets `SM_TID_BASE + i`, channel `c` gets
/// `CH_TID_BASE + c`.
const SM_TID_BASE: u32 = 1;
/// Base tid for per-channel DRAM lanes.
const CH_TID_BASE: u32 = 64;

/// Cumulative counter snapshot used to turn running totals into per-epoch
/// deltas for the timeline.
#[derive(Debug, Clone, Copy, Default)]
struct Snap {
    issued: u64,
    stall_no_ready: u64,
    stall_lsu: u64,
    dram_reads: u64,
    dram_writes: u64,
    row_hits: u64,
    row_total: u64,
    lat_sum: u64,
    lat_n: u64,
}

impl Snap {
    fn take(sms: &[SmCore], slices: &[L2Slice]) -> Self {
        let mut s = Snap::default();
        for sm in sms {
            let st = sm.stats();
            s.issued += st.issued_ops;
            s.stall_no_ready += st.stall_no_ready_warp;
            s.stall_lsu += st.stall_lsu_busy;
        }
        for slice in slices {
            let mc = slice.mc_stats();
            s.dram_reads +=
                mc.class_count(TrafficClass::DataRead) + mc.class_count(TrafficClass::EccRead);
            s.dram_writes +=
                mc.class_count(TrafficClass::DataWrite) + mc.class_count(TrafficClass::EccWrite);
            s.row_hits += mc.row_hits;
            s.row_total += mc.row_hits + mc.row_empties + mc.row_conflicts;
            s.lat_sum += mc.read_latency_sum;
            s.lat_n += mc.read_latency_count;
        }
        s
    }
}

/// The timeline series registered by the instrumented run, in order.
const TIMELINE_SERIES: [&str; 10] = [
    "ipc",
    "sm.stall_no_ready_warp",
    "sm.stall_lsu_busy",
    "dram.reads",
    "dram.writes",
    "dram.row_hit_rate",
    "dram.mean_read_latency",
    "mc.read_q",
    "mc.write_q",
    "l2.mshrs",
];

/// Accounts every tick that an SM or slice skipped before `upto` and
/// has not yet accounted for: a sleeping SM counts the stall its last
/// tick returned, a sleeping slice the controller's busy cycles. The
/// loop settles before each telemetry snapshot and when the run ends;
/// otherwise each component settles when it next ticks.
fn settle_skipped(
    upto: Cycle,
    sms: &mut [SmCore],
    sm_cal: &mut Calendar,
    sm_stall: &[StallReason],
    slices: &mut [L2Slice],
    slice_cal: &mut Calendar,
) {
    for (i, (sm, &stall)) in sms.iter_mut().zip(sm_stall).enumerate() {
        let skipped = sm_cal.settle(i, upto);
        if skipped > 0 {
            sm.account_stalled_span(skipped, stall);
        }
    }
    for (ch, slice) in slices.iter_mut().enumerate() {
        let skipped = slice_cal.settle(ch, upto);
        if skipped > 0 {
            slice.account_asleep_span(skipped);
        }
    }
}

/// Computes one epoch's sample values from the delta between snapshots
/// plus instantaneous queue occupancies.
fn epoch_values(prev: Snap, cur: Snap, epoch_len: u64, slices: &[L2Slice]) -> Vec<f64> {
    let len = epoch_len.max(1) as f64;
    let d_reads = cur.dram_reads - prev.dram_reads;
    let d_writes = cur.dram_writes - prev.dram_writes;
    let d_row_total = cur.row_total - prev.row_total;
    let d_lat_n = cur.lat_n - prev.lat_n;
    let mut read_q = 0usize;
    let mut write_q = 0usize;
    let mut mshrs = 0usize;
    for slice in slices {
        read_q += slice.mc.read_q_len();
        write_q += slice.mc.write_q_len();
        mshrs += slice.mshrs_in_use();
    }
    vec![
        (cur.issued - prev.issued) as f64 / len,
        (cur.stall_no_ready - prev.stall_no_ready) as f64,
        (cur.stall_lsu - prev.stall_lsu) as f64,
        d_reads as f64,
        d_writes as f64,
        if d_row_total == 0 {
            1.0
        } else {
            (cur.row_hits - prev.row_hits) as f64 / d_row_total as f64
        },
        if d_lat_n == 0 {
            0.0
        } else {
            (cur.lat_sum - prev.lat_sum) as f64 / d_lat_n as f64
        },
        read_q as f64,
        write_q as f64,
        mshrs as f64,
    ]
}

/// Hands one transaction from channel `ch`'s issue log to the observers
/// that are on: the fault injector (which ignores writes), the
/// read-latency histogram (reads) and the Chrome trace.
fn observe_issue(
    ch: usize,
    ev: IssueEvent,
    fault_inj: &mut Option<FaultInjector>,
    lat_hist: &mut Option<Histogram>,
    trace_out: &mut Option<ChromeTrace>,
) {
    if let Some(fi) = fault_inj {
        fi.observe(ev.class, ch as u16, ev.start);
    }
    if ev.class.is_read() {
        if let Some(h) = lat_hist {
            // Enqueue to data, as `McStats::read_latency_sum` counts it.
            h.record(ev.end.saturating_sub(ev.start) + ev.queued);
        }
    }
    if let Some(t) = trace_out {
        t.complete(TraceEvent {
            name: ev.class.to_string(),
            cat: "dram".to_string(),
            tid: CH_TID_BASE + ch as u32,
            ts: ev.start,
            dur: ev.end.saturating_sub(ev.start),
            args: vec![
                ("atom".to_string(), ev.atom as f64),
                ("queued_cycles".to_string(), ev.queued as f64),
            ],
        });
    }
}

/// Emits one per-component "epoch" slice event per SM and channel lane.
fn emit_epoch_events(
    trace_out: &mut ChromeTrace,
    sms: &[SmCore],
    slices: &[L2Slice],
    epoch_start: Cycle,
    epoch_end: Cycle,
    prev: Snap,
    cur: Snap,
) {
    if epoch_end <= epoch_start {
        return;
    }
    let dur = epoch_end - epoch_start;
    for (i, sm) in sms.iter().enumerate() {
        let st = sm.stats();
        trace_out.complete(TraceEvent {
            name: "epoch".to_string(),
            cat: "sm".to_string(),
            tid: SM_TID_BASE + i as u32,
            ts: epoch_start,
            dur,
            args: vec![
                ("issued_ops".to_string(), st.issued_ops as f64),
                ("idle_cycles".to_string(), st.idle_cycles() as f64),
            ],
        });
    }
    for (ch, slice) in slices.iter().enumerate() {
        trace_out.complete(TraceEvent {
            name: "epoch".to_string(),
            cat: "mem".to_string(),
            tid: CH_TID_BASE + ch as u32,
            ts: epoch_start,
            dur,
            args: vec![
                ("read_q".to_string(), slice.mc.read_q_len() as f64),
                ("write_q".to_string(), slice.mc.write_q_len() as f64),
                ("mshrs".to_string(), slice.mshrs_in_use() as f64),
                (
                    "reads_total".to_string(),
                    (cur.dram_reads - prev.dram_reads) as f64,
                ),
            ],
        });
    }
}

/// What a run observes besides its aggregate stats. Every observer is
/// off by default, so `Observe::default()` is the zero-overhead run.
///
/// Observers never schedule: with any combination on, the simulated
/// machine behaves identically and [`SimStats`] stay bit-identical to an
/// unobserved run, apart from the fields the observers fill in
/// (`latency_hist`, `timeline`, `faults`).
///
/// The fault injector, the latency histogram and the Chrome trace's DRAM
/// slices all read one record, the memory controllers' issue log: while
/// any of them is on, the loop takes each slice's log right after that
/// slice ticks, in ascending channel order.
#[derive(Debug, Clone, Default)]
pub struct Observe {
    /// Telemetry level. [`Timeline`](TelemetryConfig::Timeline) records a
    /// DRAM read-latency histogram and an epoch time-series into the
    /// stats; [`Full`](TelemetryConfig::Full) additionally collects
    /// Chrome trace events (per-transaction DRAM slices plus per-epoch
    /// activity slices per SM and channel lane) into
    /// [`SimOutput::trace`].
    pub telemetry: TelemetryConfig,
    /// In-situ fault injection. Every DRAM read transaction is exposed to
    /// the configured error pattern at the configured rate, decode trials
    /// run through the scheme's
    /// [`fault_codec`](ProtectionScheme::fault_codec), and the
    /// benign/corrected/DUE/SDC counters land in [`SimStats::faults`].
    pub faults: Option<FaultConfig>,
    /// Self-profiling. Records where host wall-time goes per component
    /// (SM / L1 / xbar / L2 / MC / DRAM scheduling / flush / idle probe),
    /// the sleep- and scan-memo hit rates, idle fast-forward span
    /// lengths, FR-FCFS scan depths, and a per-channel load table, all
    /// returned in [`SimOutput::profile`]. Under the `check-invariants`
    /// feature the idle fast-forward ticks through spans instead of
    /// jumping, so `idle_jumps` / `idle_spans` stay empty there.
    pub profile: bool,
}

/// Runs `trace` on the machine described by `cfg` under `scheme`, with
/// the observers `obs` turns on.
///
/// Warps are assigned to SMs round-robin. The trace must fit within the
/// machine's resident-warp capacity (`sms * warps_per_sm`). With
/// `Observe::default()` every probe site in the loop costs one
/// predictable branch.
///
/// # Panics
///
/// Panics if the configuration fails validation or the trace has more
/// warps than the machine has warp slots.
pub fn simulate(
    cfg: &GpuConfig,
    trace: &KernelTrace,
    scheme: &mut dyn ProtectionScheme,
    obs: &Observe,
) -> SimOutput {
    let faults = obs.faults.as_ref();
    let profile = obs.profile;
    // The config is validated up front; running with a broken machine
    // description is a programming error, not a recoverable condition.
    #[allow(clippy::expect_used)]
    // lint: allow(panic-freedom) reason=one-shot config validation before the first cycle; panicking on a broken machine description is the documented contract
    cfg.validate().expect("invalid GpuConfig");
    let sms_n = cfg.core.sms as usize;
    let slots = sms_n * cfg.core.warps_per_sm as usize;
    assert!(
        trace.warps().len() <= slots,
        "trace has {} warps but the machine has {slots} warp slots",
        trace.warps().len()
    );

    // Distribute warps round-robin across SMs; each SM borrows its warps'
    // ops from `trace` rather than copying them.
    let mut sms: Vec<SmCore> = (0..sms_n)
        .map(|i| {
            let id = SmId(i as u16);
            let warps = trace.warps().iter().skip(i).step_by(sms_n);
            SmCore::new(id, &cfg.core, L1Cache::new(id, &cfg.l1), warps)
        })
        .collect();

    let tax = scheme.l2_tax_bytes();
    let mut slices: Vec<L2Slice> = (0..cfg.mem.channels)
        .map(|ch| L2Slice::new(cfg, ch, tax))
        .collect();
    let mut xbar = Crossbar::new(&cfg.xbar, cfg.core.sms, cfg.mem.channels);

    // Observer setup. `Timeline` turns on the latency histogram and the
    // sampler; `Full` additionally collects Chrome trace events; fault
    // injection exposes every DRAM read to the injector. Every one of
    // them but the sampler reads the controllers' issue logs. With all
    // off (the default) the per-cycle cost is one branch per site.
    let timeline = obs.telemetry != TelemetryConfig::Off;
    let tracing = obs.telemetry == TelemetryConfig::Full;
    let mut sampler = timeline.then(|| {
        let mut s = Sampler::default();
        for name in TIMELINE_SERIES {
            s.register(name);
        }
        s
    });
    let mut lat_hist = timeline.then(Histogram::new);
    let mut trace_out = tracing.then(|| {
        let mut t = ChromeTrace::new(MAX_TRACE_EVENTS);
        for i in 0..sms.len() {
            t.name_track(SM_TID_BASE + i as u32, &format!("SM {i}"));
        }
        for ch in 0..slices.len() {
            t.name_track(CH_TID_BASE + ch as u32, &format!("DRAM ch{ch}"));
        }
        t
    });
    let mut fault_inj = faults.map(|f| {
        let mut fi = FaultInjector::new(f, scheme.fault_codec());
        fi.set_record_events(tracing);
        fi
    });
    let observing = timeline || fault_inj.is_some();
    let mut prev_snap = Snap::default();
    let mut epoch_start: Cycle = 0;

    // Self-profiling state. Observation only, same contract as
    // telemetry: when off, the timer is inert and every probe site in
    // the loop is one predictable branch.
    let mut prof = if profile {
        for slice in &mut slices {
            slice.mc.enable_profile();
        }
        Some(LoopProf {
            start: HostStamp::now(),
            t: PhaseTimer::start(true),
            slice_ns: vec![0; slices.len()],
            xbar_ns: 0,
            l1_ns: 0,
            sm_ns: 0,
            other_ns: 0,
            flush_ns: 0,
            probe_ns: 0,
            sm_sleep: MemoStats::default(),
            slice_sleep: MemoStats::default(),
            idle_spans: Histogram::new(),
            idle_jumps: 0,
            idle_cycles: 0,
        })
    } else {
        None
    };

    let mut now: Cycle = 0;
    let mut exec_cycles: Cycle = 0;
    let mut flushed = false;
    let mut timed_out = false;
    // Wake calendars: only awake SMs and slices tick (see the `calendar`
    // module). An SM sleeps after a tick that issued nothing, until its
    // `next_event` (or, with none, until a response arrives), and
    // `sm_stall[i]` caches the stall that tick returned: it cannot change
    // while the SM sleeps, because every compute expiry is a wake event,
    // load completions arrive as responses, and an L1 blocked on MSHRs
    // unblocks only on a response. This skips the O(warps) scheduler
    // scans for stalled SMs even when the memory system is busy (the
    // common memory-bound case, where the whole-machine fast-forward
    // below rarely fires). A slice sleeps after a tick, by the same rule,
    // until the `next_event` that tick returned, or until a request or
    // the flush wakes it.
    let mut sm_cal = Calendar::new(sms.len());
    let mut sm_stall: Vec<StallReason> = vec![StallReason::AllDone; sms.len()];
    let mut slice_cal = Calendar::new(slices.len());

    // Runtime invariant oracle (see the `invariants` module docs). In this
    // build the idle fast-forward below is replaced by ticking through the
    // predicted span with the progress signature frozen.
    #[cfg(feature = "check-invariants")]
    let mut oracle = Oracle::new();

    loop {
        #[cfg(feature = "check-invariants")]
        oracle.check_cycle(now, &sms, &xbar, &slices);
        if let Some(p) = &mut prof {
            p.t.reset();
        }
        sm_cal.fire(now);
        slice_cal.fire(now);
        if let Some(p) = &mut prof {
            p.probe_ns = p.probe_ns.saturating_add(p.t.lap());
        }
        // 1. Memory side. The oracle build ticks every sleeping slice
        //    anyway and checks that the tick did nothing but count the
        //    busy cycle its skip would have counted.
        #[cfg(feature = "check-invariants")]
        for (ch, slice) in slices.iter_mut().enumerate() {
            if !slice_cal.is_awake(ch) {
                let wake = slice_cal.assert_sleeper("L2 slice", ch, now);
                slice.tick_asleep_checked(scheme, now, wake);
                slice_cal.ticked(ch, now);
            }
        }
        let mut next = slice_cal.next_awake(0);
        while let Some(ch) = next {
            let slice = &mut slices[ch];
            let skipped = slice_cal.ticked(ch, now);
            if skipped > 0 {
                slice.account_asleep_span(skipped);
            }
            let event = slice.tick(scheme, now, &mut |resp, ready| {
                xbar.send_response(resp, ready);
            });
            match event {
                Some(c) if c <= now + 1 => {}
                wake => slice_cal.sleep(ch, wake.unwrap_or(Cycle::MAX)),
            }
            if let Some(p) = &mut prof {
                p.slice_sleep.miss();
                p.slice_ns[ch] = p.slice_ns[ch].saturating_add(p.t.lap());
            }
            // The controller issued at most one transaction this tick, and
            // channels tick in ascending order, so the observers see the
            // DRAM stream in issue order.
            if observing {
                if let Some(ev) = slice.mc.take_last_issue() {
                    observe_issue(ch, ev, &mut fault_inj, &mut lat_hist, &mut trace_out);
                }
                if let Some(p) = &mut prof {
                    p.other_ns = p.other_ns.saturating_add(p.t.lap());
                }
            }
            next = slice_cal.next_awake(ch + 1);
        }
        // 2. Interconnect delivery, to the endpoints with a message due.
        //    A delivery wakes its slice or SM.
        xbar.deliver_due_requests(now, |ch, req| {
            let ch = usize::from(ch);
            let slice = &mut slices[ch];
            if slice.can_accept() {
                slice.push(req);
                slice_cal.wake_up(ch);
                true
            } else {
                false
            }
        });
        if let Some(p) = &mut prof {
            p.xbar_ns = p.xbar_ns.saturating_add(p.t.lap());
        }
        xbar.deliver_due_responses(now, |i, resp| {
            let i = usize::from(i);
            sm_cal.wake_up(i);
            sms[i].l1.accept_response(resp);
        });
        if let Some(p) = &mut prof {
            p.l1_ns = p.l1_ns.saturating_add(p.t.lap());
        }
        // 3. Cores. Oracle: the calendar claims each sleeping SM cannot
        //    act before its wake and that its stall (or doneness) is
        //    frozen; re-derive both from live state.
        #[cfg(feature = "check-invariants")]
        for (i, sm) in sms.iter().enumerate() {
            if !sm_cal.is_awake(i) {
                let wake = sm_cal.assert_sleeper("SM", i, now);
                if let Some(c) = sm.next_event(now) {
                    assert!(
                        c >= wake,
                        "invariant violated: SM {i} asleep until {wake} but \
                         next_event says {c} (cycle {now})"
                    );
                }
                assert_eq!(
                    sm.stall_reason(now),
                    sm_stall[i],
                    "invariant violated: SM {i} stall reason changed \
                     while asleep (cycle {now})"
                );
            }
        }
        let mut next = sm_cal.next_awake(0);
        while let Some(i) = next {
            let sm = &mut sms[i];
            let skipped = sm_cal.ticked(i, now);
            if skipped > 0 {
                sm.account_stalled_span(skipped, sm_stall[i]);
            }
            let xbar_ref = &mut xbar;
            let scheme_map = &*scheme;
            let stall = sm.tick(now, &mut |atom| scheme_map.map(atom), &mut |req| {
                xbar_ref.try_send_request(req, now)
            });
            // Probe for sleep only when the tick issued nothing: an
            // issuing SM pays nothing for the memo beyond this branch.
            if let Some(stall) = stall {
                sm_stall[i] = stall;
                match sm.next_event(now) {
                    Some(c) if c <= now + 1 => {}
                    wake => sm_cal.sleep(i, wake.unwrap_or(Cycle::MAX)),
                }
            }
            if let Some(p) = &mut prof {
                p.sm_sleep.miss();
            }
            next = sm_cal.next_awake(i + 1);
        }
        if let Some(p) = &mut prof {
            p.sm_ns = p.sm_ns.saturating_add(p.t.lap());
        }

        // Telemetry: epoch sampling.
        if let Some(s) = &mut sampler {
            if s.due(now) {
                settle_skipped(
                    now + 1,
                    &mut sms,
                    &mut sm_cal,
                    &sm_stall,
                    &mut slices,
                    &mut slice_cal,
                );
                let cur = Snap::take(&sms, &slices);
                let epoch_len = now.saturating_sub(epoch_start);
                s.sample(&epoch_values(prev_snap, cur, epoch_len, &slices));
                if let Some(t) = &mut trace_out {
                    emit_epoch_events(t, &sms, &slices, epoch_start, now, prev_snap, cur);
                }
                prev_snap = cur;
                epoch_start = now;
            }
        }
        if let Some(p) = &mut prof {
            p.other_ns = p.other_ns.saturating_add(p.t.lap());
        }

        // Progress / termination. Sleeping SMs use the cached flag
        // (doneness is constant while asleep — see the memo invariant
        // above); awake SMs are checked live, short-circuiting on the
        // first unfinished one.
        let warps_done = sms.iter().enumerate().all(|(i, s)| {
            if sm_cal.is_awake(i) {
                s.all_warps_done(now)
            } else {
                sm_stall[i] == StallReason::AllDone
            }
        });
        if warps_done && exec_cycles == 0 {
            exec_cycles = now + 1;
        }
        if warps_done && !flushed {
            // Wait for in-flight stores to land before flushing dirty L2.
            let stores_landed = sms.iter().all(|s| s.l1.is_idle())
                && xbar.is_idle()
                && slices.iter().all(|s| s.is_idle());
            if stores_landed {
                scheme.flush();
                for slice in &mut slices {
                    slice.flush_dirty(scheme, now);
                }
                slice_cal.wake_all();
                flushed = true;
            }
        }
        if let Some(p) = &mut prof {
            p.flush_ns = p.flush_ns.saturating_add(p.t.lap());
        }
        if flushed {
            let drained = slices.iter().all(|s| s.is_idle()) && scheme.is_drained();
            if drained {
                now += 1;
                break;
            }
        }
        now += 1;
        if now >= cfg.max_cycles {
            timed_out = true;
            break;
        }

        // Idle fast-forward: when every SM and slice sleeps and no
        // message is due, nothing happens until the earliest memo wake or
        // crossbar arrival, so jump straight there. The skipped ticks are
        // settled like any other sleep, so the jump itself counts
        // nothing. The jump is capped at the sampler's next epoch
        // boundary (telemetry epochs must land on the same cycles either
        // way) and at `max_cycles` (timeout accounting).
        if sm_cal.all_asleep() && slice_cal.all_asleep() && !xbar.has_due() {
            if let Some(p) = &mut prof {
                p.t.reset();
            }
            let wake_at = [
                sm_cal.next_timer(),
                slice_cal.next_timer(),
                xbar.next_arrival(),
            ]
            .into_iter()
            .flatten()
            .min()
            .filter(|&wake| wake > now);
            if let Some(p) = &mut prof {
                p.probe_ns = p.probe_ns.saturating_add(p.t.lap());
            }
            if let Some(wake) = wake_at {
                #[cfg(not(feature = "check-invariants"))]
                {
                    let mut wake = wake.min(cfg.max_cycles);
                    if let Some(s) = &sampler {
                        wake = wake.min(s.next_due_cycle());
                    }
                    if wake > now {
                        let span = wake.saturating_sub(now);
                        if let Some(p) = &mut prof {
                            p.idle_jumps += 1;
                            p.idle_cycles = p.idle_cycles.saturating_add(span);
                            p.idle_spans.record(span);
                        }
                        now = wake;
                        if now >= cfg.max_cycles {
                            timed_out = true;
                            break;
                        }
                    }
                }
                // Oracle build: tick through the predicted-idle span
                // instead of jumping, with the progress signature frozen
                // — any component doing work inside the span (a memo or
                // arrival that lied) trips the check at the top of the
                // loop.
                #[cfg(feature = "check-invariants")]
                oracle.begin_idle_span(wake, progress_signature(&sms, &xbar, &slices));
            }
        }
    }
    settle_skipped(
        now,
        &mut sms,
        &mut sm_cal,
        &sm_stall,
        &mut slices,
        &mut slice_cal,
    );

    // Telemetry: close the final (partial) epoch so short runs still get
    // a non-empty timeline and every lane at least one event.
    if let Some(s) = &mut sampler {
        if now > epoch_start {
            let cur = Snap::take(&sms, &slices);
            s.sample(&epoch_values(
                prev_snap,
                cur,
                now.saturating_sub(epoch_start),
                &slices,
            ));
            if let Some(t) = &mut trace_out {
                emit_epoch_events(t, &sms, &slices, epoch_start, now, prev_snap, cur);
            }
        }
    }

    // Aggregate statistics.
    let mut stats = SimStats {
        kernel: trace.name().to_string(),
        scheme: scheme.name().to_string(),
        cycles: now,
        exec_cycles: if exec_cycles == 0 { now } else { exec_cycles },
        timed_out,
        ops: trace.total_ops(),
        accesses: trace.total_accesses(),
        l1_read_hits: 0,
        l1_read_misses: 0,
        l2_read_hits: 0,
        l2_read_misses: 0,
        l2_fills: 0,
        l2_writebacks: 0,
        dram: [0; 4],
        row_hits: 0,
        row_empties: 0,
        row_conflicts: 0,
        refreshes: 0,
        mean_read_latency: 0.0,
        // The scheme's buffer watermarks; the slices' decision counts are
        // merged in below.
        protection: scheme.stats(),
        latency_hist: lat_hist,
        timeline: sampler.map(Sampler::finish),
        faults: fault_inj.as_ref().map(FaultInjector::stats),
    };
    // Injected-fault instants land on the channel lanes of the trace.
    if let (Some(fi), Some(t)) = (&mut fault_inj, &mut trace_out) {
        for ev in fi.take_events() {
            t.complete(TraceEvent {
                name: format!("fault:{}", ev.outcome),
                cat: "fault".to_string(),
                tid: CH_TID_BASE + u32::from(ev.channel),
                ts: ev.cycle,
                dur: 1,
                args: vec![(
                    "ecc_read".to_string(),
                    f64::from(u8::from(ev.class == TrafficClass::EccRead)),
                )],
            });
        }
    }
    for sm in &sms {
        let l1 = sm.l1.stats();
        stats.l1_read_hits += l1.read_hits;
        stats.l1_read_misses += l1.read_misses;
    }
    let mut lat_sum = 0u64;
    let mut lat_n = 0u64;
    for slice in &slices {
        let s = slice.stats();
        stats.l2_read_hits += s.cache.read_hits;
        stats.l2_read_misses += s.cache.read_misses;
        stats.l2_fills += s.fills;
        stats.l2_writebacks += s.writebacks;
        stats.protection.merge(&s.protection);
        let mc = slice.mc_stats();
        for (i, c) in mc.count.iter().enumerate() {
            stats.dram[i] += c;
        }
        stats.row_hits += mc.row_hits;
        stats.row_empties += mc.row_empties;
        stats.row_conflicts += mc.row_conflicts;
        stats.refreshes += mc.refreshes;
        lat_sum += mc.read_latency_sum;
        lat_n += mc.read_latency_count;
    }
    stats.mean_read_latency = if lat_n == 0 {
        0.0
    } else {
        lat_sum as f64 / lat_n as f64
    };
    // Assemble the self-profile: host-time buckets (subtractive where a
    // phase nests inside another: the MC tick inside the slice tick, and
    // the FR-FCFS section inside the MC tick), memo hit rates,
    // and the per-channel load table from counters the controllers
    // already keep.
    let profile_out = prof.map(|p| {
        // Every cycle the loop visits, each SM and slice either ticks (a
        // memo miss) or sleeps (a hit).
        let visited = now.saturating_sub(p.idle_cycles);
        let mut sm_sleep = p.sm_sleep;
        let mut slice_sleep = p.slice_sleep;
        for (memo, n) in [(&mut sm_sleep, sms.len()), (&mut slice_sleep, slices.len())] {
            let lookups = visited.saturating_mul(n as u64);
            memo.hits.add(lookups.saturating_sub(memo.misses.get()));
        }
        let mut sp = SimProfile {
            cycles: now,
            host_ns_total: p.start.elapsed_ns(),
            idle_jumps: p.idle_jumps,
            idle_cycles_skipped: p.idle_cycles,
            idle_spans: p.idle_spans,
            sm_sleep,
            slice_sleep,
            ..SimProfile::default()
        };
        let mut slice_total = 0u64;
        let mut mc_total = 0u64;
        let mut dram_total = 0u64;
        for (ch, slice) in slices.iter().enumerate() {
            let mc = slice.mc_stats();
            if let Some(m) = slice.mc.profile() {
                sp.scan_memo.merge(&m.scan_memo);
                sp.scan_depth.merge(&m.scan_depth);
                mc_total = mc_total.saturating_add(m.host_tick_ns);
                dram_total = dram_total.saturating_add(m.host_sched_ns);
            }
            let host_ns = p.slice_ns[ch];
            slice_total = slice_total.saturating_add(host_ns);
            sp.channels.push(ChannelLoad {
                channel: ch as u32,
                reads: mc.class_count(TrafficClass::DataRead)
                    + mc.class_count(TrafficClass::EccRead),
                writes: mc.class_count(TrafficClass::DataWrite)
                    + mc.class_count(TrafficClass::EccWrite),
                busy_cycles: mc.busy_cycles,
                row_hits: mc.row_hits,
                row_misses: mc.row_empties + mc.row_conflicts,
                host_ns,
            });
        }
        sp.add_component_ns("sm", p.sm_ns);
        sp.add_component_ns("l1", p.l1_ns);
        sp.add_component_ns("xbar", p.xbar_ns);
        sp.add_component_ns("l2", slice_total.saturating_sub(mc_total));
        sp.add_component_ns("mc", mc_total.saturating_sub(dram_total));
        sp.add_component_ns("dram", dram_total);
        sp.add_component_ns("flush", p.flush_ns);
        sp.add_component_ns("idle_probe", p.probe_ns);
        // Residual (loop bookkeeping, setup, aggregation) joins the
        // explicit "other" bucket so the components sum to the total.
        let attributed = [
            p.sm_ns,
            p.l1_ns,
            p.xbar_ns,
            slice_total,
            p.flush_ns,
            p.probe_ns,
            p.other_ns,
        ]
        .iter()
        .fold(0u64, |acc, &ns| acc.saturating_add(ns));
        sp.add_component_ns(
            "other",
            p.other_ns
                .saturating_add(sp.host_ns_total.saturating_sub(attributed)),
        );
        sp
    });
    SimOutput {
        stats,
        trace: trace_out,
        profile: profile_out,
    }
}

/// Execution-engine knobs. The cycle loop is single-threaded, so the
/// only value is the default, `sim_threads: 1`. Kept only for the
/// benchmark crate's calls to [`simulate_with_exec`]; ROADMAP item 7
/// deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Always `1`: the simulator runs one cycle loop per cell, and
    /// parallelism comes from running cells side by side.
    pub sim_threads: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { sim_threads: 1 }
    }
}

/// [`simulate`] with its observers as positional arguments, under an
/// [`ExecConfig`] and a [`MapOrder`], which have a single value each and
/// are ignored. Kept only for the benchmark crate (`ccbench/`); ROADMAP
/// item 7 deletes it.
///
/// # Panics
///
/// Panics as [`simulate`] does.
#[allow(clippy::too_many_arguments)]
pub fn simulate_with_exec(
    cfg: &GpuConfig,
    _order: MapOrder,
    trace: &KernelTrace,
    scheme: &mut dyn ProtectionScheme,
    tel: &TelemetryConfig,
    faults: Option<&FaultConfig>,
    profile: bool,
    _exec: &ExecConfig,
) -> SimOutput {
    let obs = Observe {
        telemetry: *tel,
        faults: faults.copied(),
        profile,
    };
    simulate(cfg, trace, scheme, &obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::{ChannelInterleave, NoProtection};
    use crate::trace::{WarpOp, WarpTrace};
    use crate::types::{LogicalAtom, TrafficClass};

    fn tiny_scheme(cfg: &GpuConfig) -> NoProtection {
        NoProtection::new(ChannelInterleave::new(
            cfg.mem.channels,
            cfg.mem.interleave_atoms,
        ))
    }

    /// A streaming kernel: each warp loads a disjoint run of atoms.
    fn streaming(warps: usize, atoms_per_warp: u64) -> KernelTrace {
        let traces = (0..warps as u64)
            .map(|w| {
                let mut warp = WarpTrace::default();
                for i in 0..atoms_per_warp / 4 {
                    let base = w * atoms_per_warp + i * 4;
                    warp.push(WarpOp::Load {
                        atoms: &[0, 1, 2, 3].map(|k| LogicalAtom(base + k)),
                    });
                }
                warp
            })
            .collect();
        KernelTrace::new("stream-test", traces)
    }

    #[test]
    fn streaming_kernel_completes() {
        let cfg = GpuConfig::tiny();
        let trace = streaming(4, 64);
        let mut scheme = tiny_scheme(&cfg);
        let stats = simulate(&cfg, &trace, &mut scheme, &Observe::default()).stats;
        assert!(!stats.timed_out);
        assert_eq!(stats.ops, trace.total_ops());
        // Every distinct atom read exactly once from DRAM (no reuse).
        assert_eq!(
            stats.dram_count(TrafficClass::DataRead),
            trace.footprint_atoms()
        );
        assert_eq!(stats.dram_count(TrafficClass::EccRead), 0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = GpuConfig::tiny();
        let trace = streaming(8, 128);
        let mut s1 = tiny_scheme(&cfg);
        let mut s2 = tiny_scheme(&cfg);
        let a = simulate(&cfg, &trace, &mut s1, &Observe::default()).stats;
        let b = simulate(&cfg, &trace, &mut s2, &Observe::default()).stats;
        assert_eq!(a, b);
    }

    #[test]
    fn reuse_hits_in_l2() {
        // Two passes over a small footprint: second pass hits in caches.
        let atoms: Vec<LogicalAtom> = (0..16).map(|i| LogicalAtom(i * 4)).collect();
        let ops = (0..2).flat_map(|_| atoms.chunks(1).map(|atoms| WarpOp::Load { atoms }));
        let trace = KernelTrace::new("reuse", vec![WarpTrace::new(ops)]);
        let cfg = GpuConfig::tiny();
        let mut scheme = tiny_scheme(&cfg);
        let stats = simulate(&cfg, &trace, &mut scheme, &Observe::default()).stats;
        assert!(!stats.timed_out);
        // 16 distinct atoms; second pass must not refetch.
        assert_eq!(stats.dram_count(TrafficClass::DataRead), 16);
        assert!(stats.l1_read_hits + stats.l2_read_hits >= 16);
    }

    #[test]
    fn store_kernel_writes_back_on_flush() {
        let atoms: Vec<LogicalAtom> = (0..8).map(LogicalAtom).collect();
        let ops = atoms
            .chunks(1)
            .map(|atoms| WarpOp::Store { atoms, full: true });
        let trace = KernelTrace::new("store", vec![WarpTrace::new(ops)]);
        let cfg = GpuConfig::tiny();
        let mut scheme = tiny_scheme(&cfg);
        let stats = simulate(&cfg, &trace, &mut scheme, &Observe::default()).stats;
        assert!(!stats.timed_out);
        assert_eq!(stats.dram_count(TrafficClass::DataWrite), 8);
        assert_eq!(
            stats.dram_count(TrafficClass::DataRead),
            0,
            "full stores fetch nothing"
        );
        assert!(
            stats.cycles > stats.exec_cycles,
            "flush happens after retire"
        );
    }

    #[test]
    fn compute_only_kernel_touches_no_dram() {
        let trace = KernelTrace::new(
            "compute",
            vec![WarpTrace::new(vec![WarpOp::Compute { cycles: 100 }])],
        );
        let cfg = GpuConfig::tiny();
        let mut scheme = tiny_scheme(&cfg);
        let stats = simulate(&cfg, &trace, &mut scheme, &Observe::default()).stats;
        assert_eq!(stats.dram_bytes(), 0);
        assert!(stats.cycles >= 100);
    }

    #[test]
    fn multiple_sms_share_the_memory_system() {
        let cfg = GpuConfig::tiny(); // 2 SMs
        let trace = streaming(8, 64); // warps spread over both SMs
        let mut scheme = tiny_scheme(&cfg);
        let stats = simulate(&cfg, &trace, &mut scheme, &Observe::default()).stats;
        assert!(!stats.timed_out);
        assert_eq!(
            stats.dram_count(TrafficClass::DataRead),
            trace.footprint_atoms()
        );
    }

    #[test]
    #[should_panic(expected = "warp slots")]
    fn too_many_warps_rejected() {
        let cfg = GpuConfig::tiny(); // 2 SMs x 4 warps = 8 slots
        let trace = streaming(9, 4);
        let mut scheme = tiny_scheme(&cfg);
        let _ = simulate(&cfg, &trace, &mut scheme, &Observe::default()).stats;
    }

    #[test]
    fn telemetry_does_not_perturb_the_simulation() {
        let cfg = GpuConfig::tiny();
        let trace = streaming(8, 128);
        let mut s1 = tiny_scheme(&cfg);
        let mut s2 = tiny_scheme(&cfg);
        let plain = simulate(&cfg, &trace, &mut s1, &Observe::default()).stats;
        let obs = Observe {
            telemetry: TelemetryConfig::Full,
            ..Observe::default()
        };
        let mut probed = simulate(&cfg, &trace, &mut s2, &obs).stats;
        // Strip the telemetry-only fields: everything else must be
        // bit-identical.
        probed.latency_hist = None;
        probed.timeline = None;
        assert_eq!(plain, probed);
    }

    #[test]
    fn profiling_does_not_perturb_the_simulation() {
        let cfg = GpuConfig::tiny();
        let trace = streaming(8, 128);
        let mut s1 = tiny_scheme(&cfg);
        let mut s2 = tiny_scheme(&cfg);
        let plain = simulate(&cfg, &trace, &mut s1, &Observe::default()).stats;
        let obs = Observe {
            profile: true,
            ..Observe::default()
        };
        let out = simulate(&cfg, &trace, &mut s2, &obs);
        // Stats stay bit-identical: profiling observes, never schedules.
        assert_eq!(plain, out.stats);
        let p = out.profile.expect("profile attached");
        assert_eq!(p.cycles, plain.cycles);
        assert!(p.host_ns_total > 0);

        // The load table covers every channel and its totals reconcile
        // with the aggregate DRAM stats.
        assert_eq!(p.channels.len(), cfg.mem.channels as usize);
        let reads: u64 = p.channels.iter().map(|c| c.reads).sum();
        let writes: u64 = p.channels.iter().map(|c| c.writes).sum();
        assert_eq!(
            reads,
            plain.dram_count(TrafficClass::DataRead) + plain.dram_count(TrafficClass::EccRead)
        );
        assert_eq!(
            writes,
            plain.dram_count(TrafficClass::DataWrite) + plain.dram_count(TrafficClass::EccWrite)
        );
        let row_totals: u64 = p.channels.iter().map(|c| c.row_hits + c.row_misses).sum();
        assert_eq!(
            row_totals,
            plain.row_hits + plain.row_empties + plain.row_conflicts
        );

        // Component buckets exist and the imbalance ratios are sane.
        for name in ["sm", "l1", "xbar", "l2", "mc", "dram", "other"] {
            assert!(
                p.components.iter().any(|(n, _)| n == name),
                "missing component bucket {name}"
            );
        }
        assert!(p.busy_imbalance() >= 1.0);
        assert!((0.0..=1.0).contains(&p.sm_sleep.hit_rate()));
        assert!((0.0..=1.0).contains(&p.scan_memo.hit_rate()));
        // A memory-bound streaming kernel performs scans, so the
        // scan-depth histogram is populated.
        assert!(!p.scan_depth.is_empty());

        // With profiling off, nothing is attached.
        let mut s3 = tiny_scheme(&cfg);
        let off = simulate(&cfg, &trace, &mut s3, &Observe::default());
        assert!(off.profile.is_none());
        assert_eq!(off.stats, plain);
    }

    // Idle fast-forward jumps are replaced by single-cycle ticking under
    // check-invariants, so the span histogram is only meaningful here.
    #[cfg(not(feature = "check-invariants"))]
    #[test]
    fn profiler_records_idle_spans_on_compute_gaps() {
        let trace = KernelTrace::new(
            "long-compute",
            vec![WarpTrace::new(vec![WarpOp::Compute { cycles: 1000 }])],
        );
        let cfg = GpuConfig::tiny();
        let mut scheme = tiny_scheme(&cfg);
        let obs = Observe {
            profile: true,
            ..Observe::default()
        };
        let out = simulate(&cfg, &trace, &mut scheme, &obs);
        let p = out.profile.expect("profile attached");
        assert!(p.idle_jumps > 0, "compute gap produced no idle jumps");
        assert!(p.idle_cycles_skipped > 0);
        assert_eq!(p.idle_spans.count, p.idle_jumps);
        assert_eq!(p.idle_spans.sum, p.idle_cycles_skipped);
        // A mostly-idle run sleeps its SM almost every remaining cycle.
        assert!(p.sm_sleep.hits.get() > 0);
    }

    #[test]
    fn idle_skip_preserves_telemetry_epochs() {
        // A long trailing compute op forces the loop to fast-forward;
        // epoch sampling must still land on every epoch boundary, and the
        // stats must stay bit-identical to the uninstrumented run.
        let trace = KernelTrace::new(
            "long-compute",
            vec![WarpTrace::new(vec![WarpOp::Compute { cycles: 10_000 }])],
        );
        let cfg = GpuConfig::tiny();
        let mut s1 = tiny_scheme(&cfg);
        let mut s2 = tiny_scheme(&cfg);
        let plain = simulate(&cfg, &trace, &mut s1, &Observe::default()).stats;
        assert!(plain.cycles >= 10_000);
        let obs = Observe {
            telemetry: TelemetryConfig::Timeline,
            ..Observe::default()
        };
        let mut probed = simulate(&cfg, &trace, &mut s2, &obs).stats;
        let t = probed.timeline.take().expect("timeline");
        assert!(
            t.epochs() as u64 >= plain.cycles / ccraft_telemetry::EPOCH_CYCLES,
            "epochs were skipped: {} epochs over {} cycles",
            t.epochs(),
            plain.cycles
        );
        probed.latency_hist = None;
        assert_eq!(plain, probed);
    }

    #[test]
    fn enabled_run_attaches_histogram_and_timeline() {
        let cfg = GpuConfig::tiny();
        let trace = streaming(8, 128);
        let mut scheme = tiny_scheme(&cfg);
        let obs = Observe {
            telemetry: TelemetryConfig::Timeline,
            ..Observe::default()
        };
        let out = simulate(&cfg, &trace, &mut scheme, &obs);
        assert!(out.trace.is_none(), "trace events were not requested");
        let h = out.stats.latency_hist.as_ref().expect("histogram");
        assert_eq!(h.count, out.stats.dram[0] + out.stats.dram[2]);
        assert!(h.p99() >= h.p50());
        assert!(h.p50() >= 1);
        assert!((h.mean() - out.stats.mean_read_latency).abs() < 1e-9);
        let t = out.stats.timeline.as_ref().expect("timeline");
        assert!(t.epochs() >= 1);
        assert_eq!(t.series.len(), TIMELINE_SERIES.len());
        // The reads series accounts for every DRAM read.
        let total: f64 = t.series("dram.reads").unwrap().points.iter().sum();
        assert_eq!(total as u64, h.count);
    }

    #[test]
    fn full_telemetry_emits_events_for_every_lane() {
        let cfg = GpuConfig::tiny();
        let trace = streaming(8, 128);
        let mut scheme = tiny_scheme(&cfg);
        let obs = Observe {
            telemetry: TelemetryConfig::Full,
            ..Observe::default()
        };
        let out = simulate(&cfg, &trace, &mut scheme, &obs);
        let tr = out.trace.expect("trace events");
        assert!(!tr.is_empty());
        // Every SM lane and every channel lane has at least one complete
        // event (the epoch slices guarantee this even without traffic).
        for i in 0..cfg.core.sms {
            let tid = super::SM_TID_BASE + u32::from(i);
            assert!(
                tr.events().iter().any(|e| e.tid == tid),
                "SM {i} lane empty"
            );
        }
        for ch in 0..cfg.mem.channels {
            let tid = super::CH_TID_BASE + u32::from(ch);
            assert!(
                tr.events().iter().any(|e| e.tid == tid),
                "ch {ch} lane empty"
            );
        }
        // Per-transaction DRAM events carry the dram category.
        assert!(tr.events().iter().any(|e| e.cat == "dram"));
        let json = tr.to_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn fault_injection_is_observational() {
        use crate::faults::FaultRate;
        use ccraft_ecc::inject::ErrorPattern;
        let cfg = GpuConfig::tiny();
        let trace = streaming(8, 128);
        let mut s1 = tiny_scheme(&cfg);
        let mut s2 = tiny_scheme(&cfg);
        let plain = simulate(&cfg, &trace, &mut s1, &Observe::default()).stats;
        let fc = FaultConfig {
            pattern: ErrorPattern::SymbolError,
            rate: FaultRate::PerAccess { p: 1.0 },
            seed: 11,
        };
        let obs = Observe {
            faults: Some(fc),
            ..Observe::default()
        };
        let mut injected = simulate(&cfg, &trace, &mut s2, &obs).stats;
        let fs = injected.faults.take().expect("fault stats attached");
        // Every DRAM data read was exposed and (at p=1) faulted; under
        // NoProtection each is an SDC.
        assert_eq!(fs.data_reads, plain.dram_count(TrafficClass::DataRead));
        assert_eq!(fs.injected, fs.data_reads);
        assert_eq!(fs.sdc, fs.injected);
        // Minus the faults block, the run is bit-identical: injection
        // observed, never scheduled.
        assert_eq!(plain, injected);
    }

    #[test]
    fn rate_zero_injects_nothing_and_perturbs_nothing() {
        use crate::faults::FaultRate;
        use ccraft_ecc::inject::ErrorPattern;
        let cfg = GpuConfig::tiny();
        let trace = streaming(8, 128);
        let mut s1 = tiny_scheme(&cfg);
        let mut s2 = tiny_scheme(&cfg);
        let plain = simulate(&cfg, &trace, &mut s1, &Observe::default()).stats;
        let fc = FaultConfig {
            pattern: ErrorPattern::RandomBits { count: 1 },
            rate: FaultRate::PerAccess { p: 0.0 },
            seed: 7,
        };
        let obs = Observe {
            faults: Some(fc),
            ..Observe::default()
        };
        let mut out = simulate(&cfg, &trace, &mut s2, &obs).stats;
        let fs = out.faults.take().expect("fault stats attached");
        assert_eq!(fs.injected, 0);
        assert_eq!(fs.benign + fs.corrected + fs.due + fs.sdc, 0);
        assert!(fs.data_reads > 0, "reads still counted");
        assert_eq!(plain, out);
    }

    #[test]
    fn fault_events_reach_the_chrome_trace() {
        use crate::faults::FaultRate;
        use ccraft_ecc::inject::ErrorPattern;
        let cfg = GpuConfig::tiny();
        let trace = streaming(4, 64);
        let mut scheme = tiny_scheme(&cfg);
        let fc = FaultConfig {
            pattern: ErrorPattern::SymbolError,
            rate: FaultRate::PerAccess { p: 1.0 },
            seed: 3,
        };
        let obs = Observe {
            telemetry: TelemetryConfig::Full,
            faults: Some(fc),
            ..Observe::default()
        };
        let out = simulate(&cfg, &trace, &mut scheme, &obs);
        let tr = out.trace.expect("trace events");
        assert!(
            tr.events().iter().any(|e| e.cat == "fault"),
            "no fault events in trace"
        );
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let cfg = GpuConfig::tiny();
        let trace = KernelTrace::new("empty", vec![]);
        let mut scheme = tiny_scheme(&cfg);
        let stats = simulate(&cfg, &trace, &mut scheme, &Observe::default()).stats;
        assert!(!stats.timed_out);
        assert_eq!(stats.dram_bytes(), 0);
    }
}
