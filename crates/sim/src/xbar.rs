//! SM↔L2 crossbar interconnect.
//!
//! A latency/bandwidth model rather than a topology model: requests and
//! responses each traverse in `latency` cycles, and each endpoint (slice on
//! the request side, SM on the response side) accepts at most
//! `ports_per_endpoint` messages per cycle. Request queues are bounded to
//! create realistic backpressure into the L1s; response queues are
//! unbounded so the response path can always drain (deadlock freedom).

use crate::config::XbarConfig;
use crate::msg::{L2Request, L2Response};
use crate::types::Cycle;
use std::collections::VecDeque;

/// Per-slice request queue capacity (in-flight toward one slice).
const REQ_QUEUE_CAP: usize = 64;

/// Crossbar statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XbarStats {
    /// Requests transported SM→L2.
    pub requests: u64,
    /// Responses transported L2→SM.
    pub responses: u64,
    /// Injection attempts rejected due to a full request queue.
    pub rejects: u64,
}

/// The interconnect.
#[derive(Debug)]
pub struct Crossbar {
    latency: u32,
    ports: u32,
    /// Per-slice in-flight requests, stamped with arrival time.
    req_q: Vec<VecDeque<(Cycle, L2Request)>>,
    /// Per-SM in-flight responses.
    resp_q: Vec<VecDeque<(Cycle, L2Response)>>,
    stats: XbarStats,
    /// Oracle counter: requests handed to a slice (conservation check).
    #[cfg(feature = "check-invariants")]
    delivered_requests: u64,
    /// Oracle counter: responses handed to an SM (conservation check).
    #[cfg(feature = "check-invariants")]
    delivered_responses: u64,
}

impl Crossbar {
    /// Builds a crossbar connecting `sms` SMs to `slices` L2 slices.
    pub fn new(cfg: &XbarConfig, sms: u16, slices: u16) -> Self {
        Crossbar {
            latency: cfg.latency,
            ports: cfg.ports_per_endpoint,
            req_q: (0..slices).map(|_| VecDeque::new()).collect(),
            resp_q: (0..sms).map(|_| VecDeque::new()).collect(),
            stats: XbarStats::default(),
            #[cfg(feature = "check-invariants")]
            delivered_requests: 0,
            #[cfg(feature = "check-invariants")]
            delivered_responses: 0,
        }
    }

    /// Injects a request toward its slice. Returns `false` (and drops
    /// nothing) when that slice's queue is full.
    pub fn try_send_request(&mut self, req: L2Request, now: Cycle) -> bool {
        let q = &mut self.req_q[req.loc.channel as usize];
        if q.len() >= REQ_QUEUE_CAP {
            self.stats.rejects += 1;
            return false;
        }
        q.push_back((now + self.latency as Cycle, req));
        self.stats.requests += 1;
        true
    }

    /// Injects a response toward its SM (never fails; response queues are
    /// unbounded for deadlock freedom).
    pub fn send_response(&mut self, resp: L2Response, now: Cycle) {
        self.resp_q[resp.dest.0 as usize].push_back((now + self.latency as Cycle, resp));
        self.stats.responses += 1;
    }

    /// Pops up to `ports_per_endpoint` requests that have arrived at
    /// `slice` by `now`, as long as `accept` keeps returning `true`.
    pub fn deliver_requests(
        &mut self,
        slice: u16,
        now: Cycle,
        accept: &mut dyn FnMut(L2Request) -> bool,
    ) {
        let q = &mut self.req_q[slice as usize];
        for _ in 0..self.ports {
            match q.front() {
                Some(&(arrival, req)) if arrival <= now => {
                    if accept(req) {
                        q.pop_front();
                        #[cfg(feature = "check-invariants")]
                        {
                            self.delivered_requests += 1;
                        }
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
    }

    /// Pops up to `ports_per_endpoint` responses that have arrived at `sm`
    /// by `now` into a caller-owned buffer (cleared first), so the cycle
    /// loop can reuse one allocation across SMs and cycles.
    pub fn deliver_responses_into(&mut self, sm: u16, now: Cycle, out: &mut Vec<L2Response>) {
        out.clear();
        let q = &mut self.resp_q[sm as usize];
        for _ in 0..self.ports {
            match q.front() {
                Some(&(arrival, resp)) if arrival <= now => {
                    out.push(resp);
                    q.pop_front();
                    #[cfg(feature = "check-invariants")]
                    {
                        self.delivered_responses += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// `true` when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.req_q.iter().all(|q| q.is_empty()) && self.resp_q.iter().all(|q| q.is_empty())
    }

    /// Earliest message arrival across every queue, for idle
    /// fast-forwarding. Every push stamps `now + latency` with a constant
    /// latency, so each queue front is its minimum. `Some(c <= now)`
    /// means a message is deliverable this cycle; `None` means the
    /// crossbar is empty.
    // lint: allow(next-event-pairing) reason=the crossbar advances in deliver_requests/deliver_responses_into, driven every cycle by the gpu loop; there is no standalone tick
    pub fn next_event(&self) -> Option<Cycle> {
        let req = self
            .req_q
            .iter()
            .filter_map(|q| q.front().map(|&(arrival, _)| arrival))
            .min();
        let resp = self
            .resp_q
            .iter()
            .filter_map(|q| q.front().map(|&(arrival, _)| arrival))
            .min();
        match (req, resp) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Requests currently in flight toward slices (oracle/telemetry
    /// accessor).
    pub fn queued_requests(&self) -> usize {
        self.req_q.iter().map(VecDeque::len).sum()
    }

    /// Responses currently in flight toward SMs (oracle/telemetry
    /// accessor).
    pub fn queued_responses(&self) -> usize {
        self.resp_q.iter().map(VecDeque::len).sum()
    }

    /// Message conservation: everything injected was either delivered or
    /// is still queued. Nothing is dropped, nothing invented.
    ///
    /// # Panics
    ///
    /// Panics when a message went missing or appeared from nowhere.
    #[cfg(feature = "check-invariants")]
    pub fn assert_conserved(&self) {
        assert_eq!(
            self.stats.requests,
            self.delivered_requests + self.queued_requests() as u64,
            "invariant violated: crossbar request conservation \
             (sent != delivered + queued)"
        );
        assert_eq!(
            self.stats.responses,
            self.delivered_responses + self.queued_responses() as u64,
            "invariant violated: crossbar response conservation \
             (sent != delivered + queued)"
        );
        for (ch, q) in self.req_q.iter().enumerate() {
            assert!(
                q.len() <= REQ_QUEUE_CAP,
                "invariant violated: slice {ch} request queue over capacity \
                 ({} > {REQ_QUEUE_CAP})",
                q.len()
            );
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> XbarStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AccessKind, PhysLoc, SmId};

    fn xbar() -> Crossbar {
        Crossbar::new(
            &XbarConfig {
                latency: 4,
                ports_per_endpoint: 1,
            },
            2,
            2,
        )
    }

    fn req(channel: u16) -> L2Request {
        L2Request {
            loc: PhysLoc::new(channel, 0),
            kind: AccessKind::Read,
            src: SmId(0),
            l1_mshr: 0,
        }
    }

    #[test]
    fn requests_arrive_after_latency() {
        let mut x = xbar();
        assert!(x.try_send_request(req(0), 10));
        let mut got = Vec::new();
        x.deliver_requests(0, 13, &mut |r| {
            got.push(r);
            true
        });
        assert!(got.is_empty(), "delivered before latency elapsed");
        x.deliver_requests(0, 14, &mut |r| {
            got.push(r);
            true
        });
        assert_eq!(got.len(), 1);
        assert!(x.is_idle());
    }

    #[test]
    fn responses_arrive_after_latency() {
        let mut x = xbar();
        x.send_response(
            L2Response {
                loc: PhysLoc::new(1, 5),
                dest: SmId(1),
                l1_mshr: 3,
            },
            0,
        );
        let mut r = Vec::new();
        x.deliver_responses_into(1, 3, &mut r);
        assert!(r.is_empty());
        x.deliver_responses_into(1, 4, &mut r);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].l1_mshr, 3);
    }

    #[test]
    fn ports_limit_delivery_rate() {
        let mut x = xbar();
        for _ in 0..3 {
            assert!(x.try_send_request(req(0), 0));
        }
        let mut count = 0;
        x.deliver_requests(0, 100, &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 1, "one port means one delivery per cycle");
        x.deliver_requests(0, 101, &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn rejected_delivery_keeps_request_queued() {
        let mut x = xbar();
        assert!(x.try_send_request(req(0), 0));
        x.deliver_requests(0, 10, &mut |_| false);
        assert!(!x.is_idle());
        let mut got = 0;
        x.deliver_requests(0, 11, &mut |_| {
            got += 1;
            true
        });
        assert_eq!(got, 1);
    }

    #[test]
    fn queue_capacity_backpressures() {
        let mut x = xbar();
        for i in 0..REQ_QUEUE_CAP {
            assert!(x.try_send_request(req(0), i as Cycle));
        }
        assert!(!x.try_send_request(req(0), 0));
        assert_eq!(x.stats().rejects, 1);
        // The other slice's queue is unaffected.
        assert!(x.try_send_request(req(1), 0));
    }

    #[test]
    fn channels_route_independently() {
        let mut x = xbar();
        x.try_send_request(req(0), 0);
        x.try_send_request(req(1), 0);
        let mut got0 = 0;
        let mut got1 = 0;
        x.deliver_requests(0, 10, &mut |_| {
            got0 += 1;
            true
        });
        x.deliver_requests(1, 10, &mut |_| {
            got1 += 1;
            true
        });
        assert_eq!((got0, got1), (1, 1));
    }
}
