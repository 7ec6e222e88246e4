//! End-to-end telemetry acceptance: the observability subsystem must see
//! inside a run without perturbing it.
//!
//! Covers the PR's acceptance criteria at the facade level:
//! * disabled telemetry leaves `SimStats` bit-identical (and its JSON free
//!   of telemetry keys);
//! * an enabled run attaches a non-empty epoch time-series and a latency
//!   histogram with sane percentiles (`p99 >= p50 >= 1` cycle);
//! * a full-telemetry run produces a Chrome-trace JSON with at least one
//!   complete event per simulated component lane;
//! * every observer at once (telemetry, fault injection, profiling)
//!   leaves every other `SimStats` field bit-identical on each headline
//!   scheme.

use cachecraft::schemes::cachecraft::CacheCraftConfig;
use cachecraft::schemes::factory::{run_scheme, SchemeKind};
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::faults::FaultConfig;
use cachecraft::sim::trace::KernelTrace;
use cachecraft::sim::{simulate, Observe, SimOutput};
use cachecraft::telemetry::TelemetryConfig;
use cachecraft::workloads::{SizeClass, Workload};

fn cachecraft_kind(cfg: &GpuConfig) -> SchemeKind {
    SchemeKind::CacheCraft(CacheCraftConfig::for_machine(cfg))
}

/// Runs `kind` on `trace` with the observers `obs` turns on.
fn observed(cfg: &GpuConfig, kind: SchemeKind, trace: &KernelTrace, obs: &Observe) -> SimOutput {
    simulate(cfg, trace, kind.build(cfg).as_mut(), obs)
}

/// Telemetry configured by `telemetry`, every other observer off.
fn telemetry(telemetry: TelemetryConfig) -> Observe {
    Observe {
        telemetry,
        ..Observe::default()
    }
}

#[test]
fn disabled_telemetry_is_invisible() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let kind = cachecraft_kind(&cfg);
    let plain = run_scheme(&cfg, kind, &trace);
    let off = observed(&cfg, kind, &trace, &telemetry(TelemetryConfig::Off));
    assert_eq!(
        off.stats, plain,
        "disabled telemetry must not perturb stats"
    );
    assert!(off.trace.is_none());
    let json = serde_json::to_string(&plain).unwrap();
    assert!(
        !json.contains("latency_hist") && !json.contains("timeline"),
        "disabled run must serialize without telemetry keys: {json}"
    );
}

#[test]
fn enabled_run_reports_timeline_and_percentiles() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let out = observed(
        &cfg,
        cachecraft_kind(&cfg),
        &trace,
        &telemetry(TelemetryConfig::Timeline),
    );
    // Aggregates are unchanged relative to a plain run.
    let plain = run_scheme(&cfg, cachecraft_kind(&cfg), &trace);
    assert_eq!(out.stats.exec_cycles, plain.exec_cycles);
    assert_eq!(out.stats.dram, plain.dram);

    let hist = out.stats.latency_hist.as_ref().expect("histogram attached");
    assert!(hist.count > 0);
    assert!(
        hist.p99() >= hist.p50(),
        "p99 {} < p50 {}",
        hist.p99(),
        hist.p50()
    );
    assert!(hist.p50() >= 1, "p50 below one cycle");
    assert!((hist.mean() - plain.mean_read_latency).abs() < 1e-9);

    let tl = out.stats.timeline.as_ref().expect("timeline attached");
    assert!(tl.epochs() >= 1, "timeline must be non-empty");
    assert!(tl.series("ipc").is_some());
    assert!(tl.series("dram.reads").is_some());
    let reads: f64 = tl.series("dram.reads").unwrap().points.iter().sum();
    assert!(
        (reads - hist.count as f64).abs() < 1e-9,
        "epoch reads must sum to total"
    );
}

#[test]
fn chrome_trace_covers_every_component() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let out = observed(
        &cfg,
        cachecraft_kind(&cfg),
        &trace,
        &telemetry(TelemetryConfig::Full),
    );
    let chrome = out.trace.expect("trace collected");
    assert!(!chrome.is_empty());
    // At least one complete event per SM lane and per DRAM-channel lane.
    for sm in 0..cfg.core.sms {
        let tid = 1 + sm as u32;
        assert!(
            chrome.events().iter().any(|e| e.tid == tid),
            "no events for SM {sm}"
        );
    }
    for ch in 0..cfg.mem.channels {
        let tid = 64 + ch as u32;
        assert!(
            chrome.events().iter().any(|e| e.tid == tid),
            "no events for DRAM channel {ch}"
        );
    }
    let json = chrome.to_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(
        json.contains("\"ph\":\"X\""),
        "must contain complete events"
    );
    assert!(json.contains("\"ph\":\"M\""), "must name its tracks");
}

#[test]
fn telemetry_round_trips_through_json() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Histogram.generate(SizeClass::Tiny, 3);
    let out = observed(
        &cfg,
        cachecraft_kind(&cfg),
        &trace,
        &telemetry(TelemetryConfig::Timeline),
    );
    let json = serde_json::to_string_pretty(&out.stats).unwrap();
    let back: cachecraft::sim::SimStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, out.stats);
    let h = back.latency_hist.expect("histogram survives round trip");
    assert_eq!(h.p99(), out.stats.latency_hist.as_ref().unwrap().p99());
}

#[test]
fn all_observers_compose_without_perturbing() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::Spmv.generate(SizeClass::Tiny, 1);
    let all = Observe {
        telemetry: TelemetryConfig::Full,
        faults: Some(
            FaultConfig::parse("symbol:1.0")
                .expect("valid spec")
                .with_seed(7),
        ),
        profile: true,
    };
    for kind in SchemeKind::headline(&cfg) {
        let plain = observed(&cfg, kind, &trace, &Observe::default());
        assert!(plain.trace.is_none() && plain.profile.is_none());
        let out = observed(&cfg, kind, &trace, &all);
        assert!(out.trace.is_some(), "{kind}: trace not attached");
        let profile = out.profile.expect("profile attached");
        assert_eq!(profile.cycles, plain.stats.cycles, "{kind}");
        let mut stats = out.stats;
        assert!(stats.latency_hist.take().is_some(), "{kind}: no histogram");
        assert!(stats.timeline.take().is_some(), "{kind}: no timeline");
        let faults = stats.faults.take().expect("fault stats attached");
        assert!(faults.injected > 0, "{kind}: p=1 injected nothing");
        // Minus the observers' own fields, the run is bit-identical.
        assert_eq!(stats, plain.stats, "{kind}: observers perturbed the run");
        assert_eq!(
            serde_json::to_string(&stats).unwrap(),
            serde_json::to_string(&plain.stats).unwrap(),
            "{kind}"
        );
    }
}
