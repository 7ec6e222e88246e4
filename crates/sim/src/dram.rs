//! DRAM channel model: address mapping, bank/row state, and timing.
//!
//! The model is *cycle-approximate*: it enforces the first-order GDDR/HBM
//! constraints that memory-system studies depend on — row activate /
//! precharge / CAS latencies, `tRAS` minimum row-open time, write recovery,
//! per-bank command serialization, a shared bidirectional data bus with
//! read↔write turnaround penalties, and all-bank refresh — while omitting
//! second-order constraints (`tFAW`, bank-group `tCCD_L/S` distinction,
//! per-rank structure). DESIGN.md §5 records these approximations.
//!
//! A channel exposes one operation, [`DramChannel::try_issue_at`]: given a
//! request's coordinates and the current cycle, either commit it
//! (returning its data completion time) or report the earliest cycle it
//! can issue, the latest of its timing constraints. One private
//! function states the timing rules; the side-effect-free
//! [`DramChannel::issue_blocked_until`] reads the same answer without
//! committing. The FR-FCFS controller in [`crate::mem_ctrl`] drives this
//! interface.

use crate::config::{DramTiming, MemConfig};
use crate::types::Cycle;
use serde::{Deserialize, Serialize};

/// The DRAM address order, as the benchmark crate (`ccbench/`) passes it
/// to [`simulate_with_exec`](crate::gpu::simulate_with_exec), which
/// ignores it: the simulator has one order, the row-major one of
/// [`DramAddressMap`]. Kept only for that crate; ROADMAP item 7 deletes
/// it with `ExecConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOrder {
    /// Row-major, `[row][bank][col]`.
    RoBaCo,
}

/// Decomposed DRAM coordinates of one atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Bank index within the channel.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// Column (atom offset within the row).
    pub col: u64,
}

/// Maps channel-local atoms to DRAM coordinates, row-major
/// (`[row][bank][col]`): consecutive atoms fill a DRAM row and banks
/// interleave at row granularity. Streams enjoy long row hits; bank-level
/// parallelism comes from concurrent streams. This is the layout
/// CacheCraft's row co-location (C1) assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAddressMap {
    banks: u32,
    row_atoms: u64,
}

impl DramAddressMap {
    /// Creates a map.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or `row_atoms` is zero.
    pub fn new(banks: u32, row_atoms: u64) -> Self {
        assert!(banks.is_power_of_two(), "banks must be a power of two");
        assert!(row_atoms > 0, "row_atoms must be positive");
        DramAddressMap { banks, row_atoms }
    }

    /// Decomposes an atom index. Banks are hashed by permutation (Zhang
    /// et al., MICRO'00): the low row bits are XORed into the bank index.
    /// Bijective per row; it breaks the pathological case where
    /// same-aligned arrays land on the same bank in lock-step. All real
    /// GPU memory controllers hash banks this way.
    pub fn decompose(&self, atom: u64) -> DramCoord {
        let col = atom % self.row_atoms;
        let bank_raw = (atom / self.row_atoms) % self.banks as u64;
        let row = atom / (self.row_atoms * self.banks as u64);
        DramCoord {
            bank: ((bank_raw ^ row) & (self.banks as u64 - 1)) as u32,
            row,
            col,
        }
    }
}

/// Row-buffer outcome of an access, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank had no open row (first access or after refresh).
    Empty,
    /// A different row was open and had to be precharged.
    Conflict,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank can accept its next command.
    ready_at: Cycle,
    /// When the currently open row was activated (for tRAS).
    row_opened_at: Cycle,
    /// End of the last write burst to this bank (for tWR).
    last_write_end: Cycle,
}

impl Bank {
    fn new() -> Self {
        Bank {
            open_row: None,
            ready_at: 0,
            row_opened_at: 0,
            last_write_end: 0,
        }
    }
}

/// Direction of the last data-bus transfer, for turnaround penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusDir {
    Idle,
    Read,
    Write,
}

/// What issuing an access at a given cycle would do, when every
/// constraint is met.
#[derive(Debug, Clone, Copy)]
struct Plan {
    outcome: RowOutcome,
    /// Command-to-data latency before CAS (activate, precharge).
    col_delay: Cycle,
    dir: BusDir,
    /// First cycle of the data burst.
    data_start: Cycle,
}

/// One DRAM channel: banks plus the shared data bus.
#[derive(Debug, Clone)]
pub struct DramChannel {
    map: DramAddressMap,
    timing: DramTiming,
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    bus_dir: BusDir,
    next_refresh: Cycle,
    /// Oracle state: last `tick_refresh` cycle. The lazy refresh catch-up
    /// is only correct for non-decreasing `now`; the oracle enforces the
    /// documented precondition.
    #[cfg(feature = "check-invariants")]
    last_refresh_tick: Cycle,
    /// Row outcome counters: hit / empty / conflict.
    pub row_hits: u64,
    /// Accesses that found the bank with no open row.
    pub row_empties: u64,
    /// Accesses that required a precharge of another row.
    pub row_conflicts: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
}

impl DramChannel {
    /// Creates a channel from the memory configuration.
    pub fn new(mem: &MemConfig) -> Self {
        let map = DramAddressMap::new(mem.banks, mem.row_atoms());
        DramChannel {
            map,
            timing: mem.timing,
            banks: vec![Bank::new(); mem.banks as usize],
            bus_free_at: 0,
            bus_dir: BusDir::Idle,
            next_refresh: if mem.timing.t_refi == 0 {
                Cycle::MAX
            } else {
                mem.timing.t_refi as Cycle
            },
            #[cfg(feature = "check-invariants")]
            last_refresh_tick: 0,
            row_hits: 0,
            row_empties: 0,
            row_conflicts: 0,
            refreshes: 0,
        }
    }

    /// The address map in use.
    pub fn address_map(&self) -> DramAddressMap {
        self.map
    }

    /// The row-buffer outcome an access to `coord` would have, without
    /// changing any state. Used by FR-FCFS to prefer row hits; the memory
    /// controller caches each request's [`DramCoord`] at enqueue time so
    /// the per-cycle scan does no address arithmetic.
    pub fn row_outcome_at(&self, coord: DramCoord) -> RowOutcome {
        match self.banks[coord.bank as usize].open_row {
            Some(r) if r == coord.row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Empty,
        }
    }

    /// Performs pending refresh bookkeeping. Must be called with a
    /// monotonically non-decreasing `now` before issuing in that cycle.
    pub fn tick_refresh(&mut self, now: Cycle) {
        #[cfg(feature = "check-invariants")]
        {
            assert!(
                now >= self.last_refresh_tick,
                "invariant violated: tick_refresh called with non-monotonic \
                 now ({now} < {})",
                self.last_refresh_tick
            );
            self.last_refresh_tick = now;
        }
        while now >= self.next_refresh {
            let end = self.next_refresh + self.timing.t_rfc as Cycle;
            for bank in &mut self.banks {
                bank.ready_at = bank.ready_at.max(end);
                bank.open_row = None;
            }
            self.refreshes += 1;
            self.next_refresh += self.timing.t_refi as Cycle;
        }
    }

    /// The timing rules, stated once: what issuing the access at `now`
    /// would do, or the earliest cycle it can issue — the latest of its
    /// constraints: the bank's `ready_at`, precharge legality on a row
    /// conflict, and the data bus. Channel state changes only on an issue
    /// or a refresh, so until either happens that cycle is exact: the
    /// access fails before it and issues at it.
    fn plan(&self, coord: DramCoord, is_write: bool, now: Cycle) -> Result<Plan, Cycle> {
        let t = self.timing;
        let bank = &self.banks[coord.bank as usize];
        let mut earliest = bank.ready_at;
        let outcome = self.row_outcome_at(coord);
        let col_delay: Cycle = match outcome {
            RowOutcome::Hit => 0,
            RowOutcome::Empty => t.t_rcd as Cycle,
            RowOutcome::Conflict => {
                // Precharge legality: tRAS since activate, tWR since the
                // last write burst to this bank.
                earliest = earliest
                    .max(bank.row_opened_at + t.t_ras as Cycle)
                    .max(bank.last_write_end + t.t_wr as Cycle);
                (t.t_rp + t.t_rcd) as Cycle
            }
        };
        // Bus availability, including direction turnaround: the data
        // burst starts `lead` cycles after the issue.
        let dir = if is_write {
            BusDir::Write
        } else {
            BusDir::Read
        };
        let turnaround: Cycle = match (self.bus_dir, dir) {
            (BusDir::Read, BusDir::Write) => t.t_rtw as Cycle,
            (BusDir::Write, BusDir::Read) => t.t_wtr as Cycle,
            _ => 0,
        };
        let lead = col_delay + t.cas as Cycle;
        earliest = earliest.max((self.bus_free_at + turnaround).saturating_sub(lead));
        if earliest > now {
            return Err(earliest);
        }
        Ok(Plan {
            outcome,
            col_delay,
            dir,
            data_start: now + lead,
        })
    }

    /// Attempts to issue the access *this cycle*. On success, commits bank
    /// and bus state and returns the cycle the last data beat is on the
    /// bus (read data arrives / write completes); on failure changes
    /// nothing and returns the earliest cycle the access can issue (see
    /// [`issue_blocked_until`](Self::issue_blocked_until)).
    pub fn try_issue_at(
        &mut self,
        coord: DramCoord,
        is_write: bool,
        now: Cycle,
    ) -> Result<Cycle, Cycle> {
        let p = self.plan(coord, is_write, now)?;
        let t = self.timing;
        let data_end = p.data_start + t.burst_cycles as Cycle;
        // Oracle: re-assert protocol legality of the issue we are about to
        // commit, restating the DDR constraints independently of `plan`;
        // an issue slipping through with one unmet means the model itself
        // is broken.
        #[cfg(feature = "check-invariants")]
        {
            let bank = &self.banks[coord.bank as usize];
            assert!(
                bank.ready_at <= now,
                "invariant violated: issuing to bank {} before ready_at \
                 ({} > {now})",
                coord.bank,
                bank.ready_at
            );
            match p.outcome {
                RowOutcome::Conflict => {
                    assert!(
                        now >= bank.row_opened_at + t.t_ras as Cycle,
                        "invariant violated: precharge before tRAS elapsed \
                         (bank {}, cycle {now})",
                        coord.bank
                    );
                    assert!(
                        now >= bank.last_write_end + t.t_wr as Cycle,
                        "invariant violated: precharge before tWR elapsed \
                         (bank {}, cycle {now})",
                        coord.bank
                    );
                }
                RowOutcome::Empty => {
                    assert_eq!(
                        p.col_delay, t.t_rcd as Cycle,
                        "invariant violated: activate without tRCD delay"
                    );
                }
                RowOutcome::Hit => {}
            }
            let turnaround = match (self.bus_dir, is_write) {
                (BusDir::Read, true) => t.t_rtw as Cycle,
                (BusDir::Write, false) => t.t_wtr as Cycle,
                _ => 0,
            };
            assert!(
                self.bus_free_at + turnaround <= p.data_start,
                "invariant violated: data burst overlaps bus occupancy \
                 (bus free at {} + turnaround {turnaround} > data start \
                  {})",
                self.bus_free_at,
                p.data_start
            );
            assert!(
                now < self.next_refresh,
                "invariant violated: issue at {now} with stale refresh \
                 bookkeeping (refresh window opened at {})",
                self.next_refresh
            );
        }
        // Commit.
        let bank = &mut self.banks[coord.bank as usize];
        match p.outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Empty => {
                self.row_empties += 1;
                bank.row_opened_at = now;
                bank.open_row = Some(coord.row);
            }
            RowOutcome::Conflict => {
                self.row_conflicts += 1;
                bank.row_opened_at = now + t.t_rp as Cycle;
                bank.open_row = Some(coord.row);
            }
        }
        // The bank can take its next column command after this access'
        // command sequence plus one burst slot (serializes same-bank
        // columns at burst rate).
        bank.ready_at = now + p.col_delay + t.burst_cycles as Cycle;
        if is_write {
            bank.last_write_end = data_end;
        }
        self.bus_free_at = data_end;
        self.bus_dir = p.dir;
        Ok(data_end)
    }

    /// The cycle the next refresh window opens (`Cycle::MAX` when refresh
    /// is disabled). Refresh is the only event that changes bank state
    /// without an issue, so scan-skipping bounds must be capped here.
    pub fn next_refresh_at(&self) -> Cycle {
        self.next_refresh
    }

    /// Earliest cycle at which [`try_issue_at`](Self::try_issue_at) for
    /// this access succeeds, assuming no intervening issue or refresh
    /// changes channel state; `now` when it would issue. Exact: every
    /// constraint has expired by then and one has not before. The same
    /// rules as `try_issue_at`, without committing.
    pub fn issue_blocked_until(&self, coord: DramCoord, is_write: bool, now: Cycle) -> Cycle {
        self.plan(coord, is_write, now).err().unwrap_or(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn channel() -> DramChannel {
        // tiny(): t_rcd=5, t_rp=5, t_ras=12, cas=5, burst=1, refresh off,
        // 4 banks, 64-atom rows.
        DramChannel::new(&GpuConfig::tiny().mem)
    }

    /// Issues the access to `atom` through the channel's address map.
    fn issue(ch: &mut DramChannel, atom: u64, is_write: bool, now: Cycle) -> Result<Cycle, Cycle> {
        ch.try_issue_at(ch.address_map().decompose(atom), is_write, now)
    }

    /// The row-buffer outcome an access to `atom` would have.
    fn outcome(ch: &DramChannel, atom: u64) -> RowOutcome {
        ch.row_outcome_at(ch.address_map().decompose(atom))
    }

    #[test]
    fn robaco_decomposition() {
        let map = DramAddressMap::new(4, 64);
        assert_eq!(
            map.decompose(0),
            DramCoord {
                bank: 0,
                row: 0,
                col: 0
            }
        );
        assert_eq!(
            map.decompose(63),
            DramCoord {
                bank: 0,
                row: 0,
                col: 63
            }
        );
        assert_eq!(
            map.decompose(64),
            DramCoord {
                bank: 1,
                row: 0,
                col: 0
            }
        );
        // Row 1: bank hashing XORs the row into the raw bank index.
        assert_eq!(
            map.decompose(64 * 4),
            DramCoord {
                bank: 1,
                row: 1,
                col: 0
            }
        );
        assert_eq!(
            map.decompose(64 * 4 + 65),
            DramCoord {
                bank: 0,
                row: 1,
                col: 1
            }
        );
    }

    #[test]
    fn decomposition_is_injective_within_capacity() {
        let map = DramAddressMap::new(4, 64);
        let mut seen = crate::fxmap::FxHashSet::default();
        for atom in 0..(4 * 64 * 8) {
            let c = map.decompose(atom);
            assert!(c.col < 64);
            assert!(c.bank < 4);
            assert!(seen.insert((c.bank, c.row, c.col)), "collision at {atom}");
        }
    }

    #[test]
    fn first_access_is_row_empty() {
        let mut ch = channel();
        assert_eq!(outcome(&ch, 0), RowOutcome::Empty);
        let ready = issue(&mut ch, 0, false, 0).expect("issue");
        // tRCD + CAS + burst = 5 + 5 + 1.
        assert_eq!(ready, 11);
    }

    #[test]
    fn second_access_same_row_is_hit() {
        let mut ch = channel();
        issue(&mut ch, 0, false, 0).unwrap();
        // Bank busy until col_delay + burst = 6; bus busy until 11.
        assert_eq!(outcome(&ch, 1), RowOutcome::Hit);
        let ready = issue(&mut ch, 1, false, 6).expect("issue");
        // data at 6 + CAS + burst = 12 (pipelines right behind first burst).
        assert_eq!(ready, 12);
    }

    #[test]
    fn row_conflict_waits_for_tras() {
        let mut ch = channel();
        issue(&mut ch, 0, false, 0).unwrap(); // opens row 0 of bank 0 at t=0
                                              // Same hashed bank, different row: atom 320 = row 1, raw bank 1,
                                              // hashed bank 1^1 = 0 — conflicts with atom 0's bank.
                                              // tRAS=12: precharge not allowed before cycle 12.
        assert_eq!(issue(&mut ch, 320, false, 6), Err(12));
        assert_eq!(outcome(&ch, 320), RowOutcome::Conflict);
        let ready = issue(&mut ch, 320, false, 12).expect("issue");
        // tRP + tRCD + CAS + burst = 5+5+5+1 after t=12.
        assert_eq!(ready, 12 + 16);
    }

    #[test]
    fn different_banks_overlap() {
        let mut ch = channel();
        issue(&mut ch, 0, false, 0).unwrap(); // bank 0
                                              // Bank 1 (atom 64) can activate in parallel; only bus conflicts.
        assert_eq!(outcome(&ch, 64), RowOutcome::Empty);
        let ready = issue(&mut ch, 64, false, 1).expect("issue");
        assert_eq!(ready, 1 + 5 + 5 + 1);
    }

    #[test]
    fn bus_conflict_blocks_issue() {
        let mut ch = channel();
        // Two banks, data would collide on the bus at the same cycle.
        issue(&mut ch, 0, false, 0).unwrap(); // data 10..11
                                              // bank 1 at now=0: data would start at 10 too -> bus_free 11 > 10.
        assert_eq!(issue(&mut ch, 64, false, 0), Err(1));
        assert!(issue(&mut ch, 64, false, 1).is_ok());
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut ch = channel();
        issue(&mut ch, 0, true, 0).unwrap(); // write: data 10..11, dir=Write
                                             // Read on another bank at now=5: data_start = 5+5+5 = 15,
                                             // needs bus_free(11) + tWTR(3) = 14 <= 15: OK.
        let ready = issue(&mut ch, 64, false, 5).expect("issue");
        assert_eq!(ready, 16);
        // Immediately after, same-direction has no extra penalty.
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut ch = channel();
        issue(&mut ch, 0, true, 0).unwrap(); // write ends at 11
                                             // Conflict in same bank: precharge needs tRAS(12) and
                                             // last_write_end(11) + tWR(6) = 17.
        assert_eq!(issue(&mut ch, 320, false, 12), Err(17));
        assert_eq!(issue(&mut ch, 320, false, 16), Err(17));
        assert!(issue(&mut ch, 320, false, 17).is_ok());
    }

    #[test]
    fn refresh_closes_rows_and_stalls_banks() {
        let mut cfg = GpuConfig::tiny();
        cfg.mem.timing.t_refi = 100;
        cfg.mem.timing.t_rfc = 20;
        let mut ch = DramChannel::new(&cfg.mem);
        issue(&mut ch, 0, false, 0).unwrap();
        assert_eq!(outcome(&ch, 1), RowOutcome::Hit);
        ch.tick_refresh(100);
        assert_eq!(ch.refreshes, 1);
        // Row closed by refresh; bank stalled until 120.
        assert_eq!(outcome(&ch, 1), RowOutcome::Empty);
        assert_eq!(issue(&mut ch, 1, false, 110), Err(120));
        assert!(issue(&mut ch, 1, false, 120).is_ok());
    }

    #[test]
    fn peek_matches_issue_outcome() {
        let mut ch = channel();
        assert_eq!(outcome(&ch, 0), RowOutcome::Empty);
        issue(&mut ch, 0, false, 0).unwrap();
        assert_eq!(outcome(&ch, 1), RowOutcome::Hit);
        assert_eq!(outcome(&ch, 320), RowOutcome::Conflict);
    }

    #[test]
    fn stats_accumulate() {
        let mut ch = channel();
        issue(&mut ch, 0, false, 0).unwrap();
        let mut now = 6;
        issue(&mut ch, 1, false, now).unwrap();
        now = 20;
        issue(&mut ch, 320, false, now).unwrap();
        assert_eq!(ch.row_empties, 1);
        assert_eq!(ch.row_hits, 1);
        assert_eq!(ch.row_conflicts, 1);
    }
}
