//! Randomized property tests over the core data structures and
//! invariants, spanning all workspace crates through the facade.
//!
//! Each test drives a seeded `SmallRng` through a fixed number of cases,
//! so failures are reproducible without an external shrinking framework:
//! the case loop prints enough context (`case i`) to replay by hand.

use cachecraft::ecc::code::{Codec, DecodeOutcome};
use cachecraft::ecc::layout::{EccPlacement, InlineLayout};
use cachecraft::ecc::rs::ReedSolomon;
use cachecraft::ecc::secded::SecDed64;
use cachecraft::ecc::tagged::TaggedSecDed;
use cachecraft::schemes::factory::{run_scheme, SchemeKind};
use cachecraft::sim::cache::SectorCache;
use cachecraft::sim::coalesce::{coalesce_into, coalesce_writes_into};
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::dram::{DramChannel, RowOutcome};
use cachecraft::sim::protection::ChannelInterleave;
use cachecraft::sim::trace::{KernelTrace, WarpOp, WarpTrace};
use cachecraft::sim::types::LogicalAtom;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

/// SEC-DED corrects any single-bit error in data or check.
#[test]
fn secded_corrects_any_single_bit() {
    let codec = SecDed64::new();
    let mut rng = SmallRng::seed_from_u64(0xD0C1);
    // Exhaustive over the flipped bit position, random over the payload.
    for pos in 0u32..72 {
        let data: [u8; 8] = rng.gen();
        let check = codec.encode(&data);
        let mut buf = data.to_vec();
        buf.extend_from_slice(&check);
        buf[(pos / 8) as usize] ^= 1 << (pos % 8);
        let (d, c) = buf.split_at_mut(8);
        let mut d = d.to_vec();
        let outcome = codec.decode(&mut d, c);
        assert!(outcome.is_usable(), "bit {pos}: outcome {outcome:?}");
        assert_eq!(&d[..], &data[..], "bit {pos}: corrected to wrong data");
    }
}

/// SEC-DED never silently corrupts on any double-bit error.
#[test]
fn secded_never_sdc_on_double_bits() {
    let codec = SecDed64::new();
    let mut rng = SmallRng::seed_from_u64(0xD0C2);
    for case in 0..CASES {
        let data: [u8; 8] = rng.gen();
        let p1: u32 = rng.gen_range(0..72);
        let mut p2: u32 = rng.gen_range(0..72);
        while p2 == p1 {
            p2 = rng.gen_range(0..72);
        }
        let check = codec.encode(&data);
        let mut buf = data.to_vec();
        buf.extend_from_slice(&check);
        for p in [p1, p2] {
            buf[(p / 8) as usize] ^= 1 << (p % 8);
        }
        let (d, c) = buf.split_at_mut(8);
        let mut d = d.to_vec();
        let outcome = codec.decode(&mut d, c);
        assert_eq!(
            outcome,
            DecodeOutcome::DetectedUncorrectable,
            "case {case}: bits {p1},{p2}"
        );
    }
}

/// RS(36,32) corrects any error confined to at most 2 symbols.
#[test]
fn rs_corrects_up_to_t_symbols() {
    let rs = ReedSolomon::new(36, 32).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xD0C3);
    for case in 0..CASES {
        let seed: u64 = rng.gen_range(0..1000);
        let s1: usize = rng.gen_range(0..36);
        let s2: usize = rng.gen_range(0..36);
        let e1: u8 = rng.gen_range(1..=255);
        let e2: u8 = rng.gen_range(1..=255);
        let data: Vec<u8> = (0..32)
            .map(|i| (seed as u8).wrapping_mul(17).wrapping_add(i))
            .collect();
        let check = rs.encode(&data);
        let mut buf = data.clone();
        buf.extend_from_slice(&check);
        buf[s1] ^= e1;
        if s2 != s1 {
            buf[s2] ^= e2;
        }
        let (d, c) = buf.split_at_mut(32);
        let mut d = d.to_vec();
        let outcome = rs.decode(&mut d, c);
        assert!(outcome.is_usable(), "case {case}: outcome {outcome:?}");
        assert_eq!(&d[..], &data[..], "case {case}: wrong correction");
    }
}

/// Tagged SEC-DED: a wrong tag on clean data is always reported.
#[test]
fn tagged_mismatch_always_detected() {
    let codec = TaggedSecDed::new(4).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xD0C4);
    for case in 0..CASES {
        let data: [u8; 8] = rng.gen();
        let stored: u8 = rng.gen_range(0..16);
        let mut expected: u8 = rng.gen_range(0..16);
        while expected == stored {
            expected = rng.gen_range(0..16);
        }
        let check = codec.encode(&data, stored);
        let mut buf = data;
        let outcome = codec.decode(&mut buf, &check, expected);
        assert_eq!(outcome, DecodeOutcome::TagMismatch, "case {case}");
        assert_eq!(buf, data, "case {case}: data mutated on mismatch");
    }
}

/// The inline layout is a bijection between logical data atoms and
/// non-ECC physical atoms, and ECC lookups are consistent.
#[test]
fn layout_bijectivity() {
    let mut rng = SmallRng::seed_from_u64(0xD0C5);
    for coverage in [8u32, 16, 32] {
        for colocated in [false, true] {
            let placement = if colocated {
                EccPlacement::RowColocated { row_atoms: 64 }
            } else {
                EccPlacement::ReservedRegion
            };
            let layout = InlineLayout::new(placement, coverage, 1 << 16);
            for _ in 0..16 {
                let probe: u64 = rng.gen_range(0..10_000);
                let logical = probe % layout.data_atoms();
                let phys = layout.logical_to_physical(logical);
                assert!(!layout.is_ecc_atom(phys));
                assert_eq!(layout.physical_to_logical(phys), Some(logical));
                let ecc = layout.ecc_atom_for(phys);
                assert!(layout.is_ecc_atom(ecc));
                let (first, count) = layout.covered_data_atoms(ecc);
                assert!(
                    (first..first + count).contains(&phys),
                    "coverage {coverage} colocated {colocated} probe {probe}"
                );
            }
        }
    }
}

/// Channel interleave split/join round-trips and balances.
#[test]
fn interleave_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0xD0C6);
    for channels in 1u16..=16 {
        let il = ChannelInterleave::new(channels, 8);
        for _ in 0..16 {
            let atom: u64 = rng.gen_range(0..1_000_000);
            let (ch, local) = il.split(LogicalAtom(atom));
            assert!(ch < channels);
            assert_eq!(il.join(ch, local), LogicalAtom(atom));
        }
    }
}

/// Coalescing produces unique atoms covering exactly the input bytes.
#[test]
fn coalesce_unique_and_covering() {
    let mut rng = SmallRng::seed_from_u64(0xD0C7);
    for case in 0..CASES {
        let len: usize = rng.gen_range(1..32);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..100_000)).collect();
        let mut atoms = Vec::new();
        coalesce_into(&addrs, &mut atoms);
        let set: std::collections::HashSet<_> = atoms.iter().collect();
        assert_eq!(set.len(), atoms.len(), "case {case}: duplicate atoms");
        for &a in &addrs {
            assert!(
                atoms.contains(&LogicalAtom(a / 32)),
                "case {case}: address {a} uncovered"
            );
        }
    }
}

/// Write coalescing lists an atom among the full ones iff the lanes cover all 32
/// bytes (checked against a bitmap oracle).
#[test]
fn coalesce_writes_coverage_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xD0C8);
    let widths = [1u32, 2, 4, 8, 16, 32];
    for case in 0..CASES {
        let len: usize = rng.gen_range(1..32);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..4096)).collect();
        let width = widths[rng.gen_range(0..widths.len())];
        let mut atoms = Vec::new();
        let full = coalesce_writes_into(&addrs, width, &mut atoms);
        let mut oracle: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for &a in &addrs {
            for b in a..a + width as u64 {
                *oracle.entry(b / 32).or_default() |= 1u64 << (b % 32);
            }
        }
        assert_eq!(atoms.len(), oracle.len(), "case {case}");
        for (i, atom) in atoms.into_iter().enumerate() {
            assert_eq!(
                i < full,
                oracle[&atom.0] == (1u64 << 32) - 1,
                "case {case}: atom {atom:?}"
            );
        }
    }
}

/// Cache invariant: a filled atom probes true until evicted, and
/// capacity is never exceeded.
#[test]
fn cache_fill_probe_capacity() {
    let mut rng = SmallRng::seed_from_u64(0xD0C9);
    for case in 0..CASES {
        let mut c = SectorCache::new_hashed(16, 4, 1);
        let len: usize = rng.gen_range(1..200);
        for _ in 0..len {
            let a: u64 = rng.gen_range(0..10_000);
            c.fill(a, false);
            assert!(c.probe(a), "case {case}: atom {a} lost right after fill");
        }
        assert!(c.valid_atoms() <= 64, "case {case}: capacity exceeded");
    }
}

/// The DRAM channel's blocked-until bound is never late: the memory
/// controller sleeps its FR-FCFS scan until the earliest bound its failed
/// attempts report, so a bound later than the first cycle an access could
/// really issue would silently delay it. Seeded random accesses over a
/// few rows per bank (so hits, empties and conflicts all occur), with
/// refresh on for `gddr6`; at each step the bound is `now` exactly when
/// the access issues, and every cycle before the bound (up to the next
/// refresh, which changes bank state) still refuses it. The bound is not
/// early either: when it comes before the next refresh, the access issues
/// at it, so a scan that sleeps until the bound finds work.
#[test]
fn dram_issue_bound_is_never_late() {
    /// Cycles checked past `now` per step, to bound the test's run time.
    const MAX_SPAN: u64 = 48;
    for (name, mem) in [
        ("tiny", GpuConfig::tiny().mem),
        ("gddr6", GpuConfig::gddr6().mem),
    ] {
        let mut rng = SmallRng::seed_from_u64(0xD0CB);
        let mut ch = DramChannel::new(&mem);
        let map = ch.address_map();
        let atoms = 3 * mem.banks as u64 * mem.row_atoms();
        let mut outcomes = [0u64; 3];
        let mut now = 0;
        for step in 0..12_000 {
            now += rng.gen_range(0..4u64);
            ch.tick_refresh(now);
            let coord = map.decompose(rng.gen_range(0..atoms));
            let is_write = rng.gen_bool(0.3);
            let bound = ch.issue_blocked_until(coord, is_write, now);
            assert!(
                bound >= now,
                "{name} step {step}: bound {bound} before {now}"
            );
            let issued = ch.clone().try_issue_at(coord, is_write, now);
            assert_eq!(
                bound == now,
                issued.is_ok(),
                "{name} step {step}: bound {bound} at {now} but issue gave {issued:?}"
            );
            if bound < ch.next_refresh_at() {
                assert!(
                    ch.clone().try_issue_at(coord, is_write, bound).is_ok(),
                    "{name} step {step}: bound {bound} at {now} is early: no issue at it"
                );
            }
            let end = bound.min(ch.next_refresh_at()).min(now + MAX_SPAN);
            for n in now..end {
                assert!(
                    ch.clone().try_issue_at(coord, is_write, n).is_err(),
                    "{name} step {step}: bound {bound} at {now} is late: issues at {n}"
                );
            }
            let row = ch.row_outcome_at(coord);
            if ch.try_issue_at(coord, is_write, now).is_ok() {
                let k = match row {
                    RowOutcome::Hit => 0,
                    RowOutcome::Empty => 1,
                    RowOutcome::Conflict => 2,
                };
                outcomes[k] += 1;
            }
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "{name}: hits, empties and conflicts must all occur: {outcomes:?}"
        );
        if mem.timing.t_refi > 0 {
            assert!(ch.refreshes >= 3, "{name}: only {} refreshes", ch.refreshes);
        }
    }
}

/// End-to-end: simulation of a random small trace is deterministic and
/// conserves demand reads across protection schemes.
#[test]
fn random_trace_scheme_invariants() {
    for seed in 0u64..8 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops_per_warp: usize = rng.gen_range(4..24);
        let warps: Vec<WarpTrace> = (0..4)
            .map(|_| {
                let mut warp = WarpTrace::default();
                for _ in 0..ops_per_warp {
                    if rng.gen_bool(0.3) {
                        warp.push(WarpOp::Compute {
                            cycles: rng.gen_range(1..20),
                        });
                    } else {
                        let base: u64 = rng.gen_range(0..4096);
                        let atoms: Vec<LogicalAtom> = (0..rng.gen_range(1..4u64))
                            .map(|k| LogicalAtom(base + k))
                            .collect();
                        let atoms = &atoms;
                        warp.push(if rng.gen_bool(0.3) {
                            WarpOp::Store {
                                atoms,
                                full: rng.gen_bool(0.7),
                            }
                        } else {
                            WarpOp::Load { atoms }
                        });
                    }
                }
                warp
            })
            .collect();
        let trace = KernelTrace::new("prop", warps);
        let cfg = GpuConfig::tiny();
        let a = run_scheme(&cfg, SchemeKind::InlineNaive { coverage: 8 }, &trace);
        let b = run_scheme(&cfg, SchemeKind::InlineNaive { coverage: 8 }, &trace);
        assert_eq!(a, b, "seed {seed}: nondeterministic simulation");
        assert!(!a.timed_out, "seed {seed}");
        // Traces with reuse may refetch a few atoms depending on fill
        // timing (MSHR merge windows differ across schemes), so demand
        // reads match within a small tolerance rather than exactly.
        let none = run_scheme(&cfg, SchemeKind::NoProtection, &trace);
        let (lo, hi) = (none.dram[0].min(a.dram[0]), none.dram[0].max(a.dram[0]));
        assert!(
            hi - lo <= hi / 5 + 4,
            "seed {seed}: demand reads diverged: naive {} vs none {}",
            a.dram[0],
            none.dram[0]
        );
    }
}
