//! SM↔L2 crossbar interconnect.
//!
//! A latency/bandwidth model rather than a topology model: requests and
//! responses each traverse in `latency` cycles, and each endpoint (slice on
//! the request side, SM on the response side) accepts at most
//! `ports_per_endpoint` messages per cycle. Request queues are bounded to
//! create realistic backpressure into the L1s; response queues are
//! unbounded so the response path can always drain (deadlock freedom).
//!
//! Delivery visits only the endpoints with a message due. Every message
//! arrives `latency` cycles after it departs, so each direction keeps one
//! arrival FIFO of `(arrival, endpoint)` in send order, which is arrival
//! order. A request departs when it is sent. A response is sent in the
//! slice tick that makes it and departs `l2.latency` cycles later, so
//! every response push is also `now` plus a constant and the response
//! FIFO stays sorted too (the oracle build checks each push). An endpoint
//! becomes due when one of its arrivals matures and stays due while an
//! arrived message waits for it: a port-limited endpoint takes the rest
//! on later cycles, and a slice that refuses a request is offered it
//! again the next cycle.

use crate::calendar::IndexSet;
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

/// One direction of the crossbar: a FIFO of in-flight messages per
/// endpoint, plus the arrival calendar that says which endpoints have a
/// message due.
#[derive(Debug)]
struct Lane<T> {
    /// Per-endpoint messages in send order; the first `arrived[e]` of
    /// endpoint `e` have arrived.
    queues: Vec<VecDeque<T>>,
    /// `(arrival, endpoint)` of every message whose arrival has not
    /// matured yet, in arrival order.
    arrivals: VecDeque<(Cycle, u16)>,
    /// Arrived, undelivered messages per endpoint.
    arrived: Vec<u32>,
    /// Endpoints with `arrived > 0`.
    due: IndexSet,
}

impl<T: Copy> Lane<T> {
    fn new(endpoints: u16) -> Self {
        let n = usize::from(endpoints);
        Lane {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            arrivals: VecDeque::new(),
            arrived: vec![0; n],
            due: IndexSet::new(n),
        }
    }

    fn push(&mut self, endpoint: u16, msg: T, arrival: Cycle) {
        #[cfg(feature = "check-invariants")]
        if let Some(&(back, _)) = self.arrivals.back() {
            assert!(
                arrival >= back,
                "invariant violated: crossbar arrival {arrival} pushed behind \
                 a later one ({back}); the arrival FIFO must stay sorted"
            );
        }
        self.queues[usize::from(endpoint)].push_back(msg);
        self.arrivals.push_back((arrival, endpoint));
    }

    /// Matures the arrivals due by `now`, then offers each due endpoint,
    /// in ascending index, up to `ports` of its arrived messages in FIFO
    /// order until `accept` refuses one. Returns the messages delivered.
    fn deliver(&mut self, now: Cycle, ports: u32, mut accept: impl FnMut(u16, T) -> bool) -> u64 {
        while let Some(&(arrival, endpoint)) = self.arrivals.front() {
            if arrival > now {
                break;
            }
            self.arrivals.pop_front();
            self.arrived[usize::from(endpoint)] += 1;
            self.due.insert(usize::from(endpoint));
        }
        let mut delivered = 0;
        let mut next = self.due.next_from(0);
        while let Some(e) = next {
            let (queue, arrived) = (&mut self.queues[e], &mut self.arrived[e]);
            for _ in 0..ports {
                if *arrived == 0 {
                    break;
                }
                let Some(&msg) = queue.front() else { break };
                if !accept(e as u16, msg) {
                    break;
                }
                queue.pop_front();
                *arrived -= 1;
                delivered += 1;
            }
            if *arrived == 0 {
                self.due.remove(e);
            }
            next = self.due.next_from(e + 1);
        }
        delivered
    }

    fn next_arrival(&self) -> Option<Cycle> {
        self.arrivals.front().map(|&(arrival, _)| arrival)
    }

    fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// The interconnect.
#[derive(Debug)]
pub struct Crossbar {
    latency: u32,
    ports: u32,
    /// In-flight requests, per slice.
    req: Lane<L2Request>,
    /// In-flight responses, per SM.
    resp: Lane<L2Response>,
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
            req: Lane::new(slices),
            resp: Lane::new(sms),
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
        let slice = req.loc.channel;
        if self.req.queues[usize::from(slice)].len() >= REQ_QUEUE_CAP {
            self.stats.rejects += 1;
            return false;
        }
        self.req.push(slice, req, now + self.latency as Cycle);
        self.stats.requests += 1;
        true
    }

    /// Injects a response toward its SM that departs at cycle `ready`,
    /// which may lie ahead: a slice sends each response when it makes it,
    /// `l2.latency` cycles before it departs. Never fails; response queues
    /// are unbounded for deadlock freedom.
    pub fn send_response(&mut self, resp: L2Response, ready: Cycle) {
        self.resp
            .push(resp.dest.0, resp, ready + self.latency as Cycle);
        self.stats.responses += 1;
    }

    /// Offers every slice with a request due at `now`, in ascending
    /// slice order, up to `ports_per_endpoint` of them, as long as
    /// `accept(slice, req)` keeps returning `true`. A refused or
    /// port-limited slice stays due.
    pub fn deliver_due_requests(&mut self, now: Cycle, accept: impl FnMut(u16, L2Request) -> bool) {
        let _delivered = self.req.deliver(now, self.ports, accept);
        #[cfg(feature = "check-invariants")]
        {
            self.delivered_requests += _delivered;
        }
    }

    /// Hands every SM with a response due at `now`, in ascending SM
    /// order, up to `ports_per_endpoint` of them via `deliver(sm, resp)`.
    pub fn deliver_due_responses(&mut self, now: Cycle, mut deliver: impl FnMut(u16, L2Response)) {
        let _delivered = self.resp.deliver(now, self.ports, |sm, resp| {
            deliver(sm, resp);
            true
        });
        #[cfg(feature = "check-invariants")]
        {
            self.delivered_responses += _delivered;
        }
    }

    /// `true` when a message has arrived at an endpoint that has not
    /// taken it yet.
    pub fn has_due(&self) -> bool {
        !self.req.due.is_empty() || !self.resp.due.is_empty()
    }

    /// The earliest arrival that has not matured yet, in either
    /// direction; `None` when every message in flight has arrived.
    pub fn next_arrival(&self) -> Option<Cycle> {
        match (self.req.next_arrival(), self.resp.next_arrival()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// `true` when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.queued_requests() == 0 && self.queued_responses() == 0
    }

    /// Requests currently in flight toward slices (oracle/telemetry
    /// accessor).
    pub fn queued_requests(&self) -> usize {
        self.req.queued()
    }

    /// Responses currently in flight toward SMs (oracle/telemetry
    /// accessor).
    pub fn queued_responses(&self) -> usize {
        self.resp.queued()
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
        for (ch, q) in self.req.queues.iter().enumerate() {
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
        req_from(channel, 0)
    }

    fn req_from(channel: u16, l1_mshr: u32) -> L2Request {
        L2Request {
            loc: PhysLoc::new(channel, 0),
            kind: AccessKind::Read,
            src: SmId(0),
            l1_mshr,
        }
    }

    /// Delivers the requests due at `now`, accepting all of them.
    fn take_requests(x: &mut Crossbar, now: Cycle) -> Vec<(u16, u32)> {
        let mut got = Vec::new();
        x.deliver_due_requests(now, |slice, r| {
            got.push((slice, r.l1_mshr));
            true
        });
        got
    }

    #[test]
    fn requests_arrive_after_latency() {
        let mut x = xbar();
        assert!(x.try_send_request(req(0), 10));
        assert_eq!(x.next_arrival(), Some(14));
        assert!(take_requests(&mut x, 13).is_empty(), "delivered early");
        assert!(!x.has_due());
        assert_eq!(take_requests(&mut x, 14), vec![(0, 0)]);
        assert!(x.is_idle());
        assert_eq!(x.next_arrival(), None);
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
        x.deliver_due_responses(3, |sm, resp| r.push((sm, resp.l1_mshr)));
        assert!(r.is_empty());
        x.deliver_due_responses(4, |sm, resp| r.push((sm, resp.l1_mshr)));
        assert_eq!(r, vec![(1, 3)]);
        assert!(x.is_idle());
    }

    #[test]
    #[cfg(feature = "check-invariants")]
    #[should_panic(expected = "arrival FIFO must stay sorted")]
    fn oracle_rejects_an_arrival_behind_a_later_one() {
        let mut x = xbar();
        let resp = L2Response {
            loc: PhysLoc::new(0, 0),
            dest: SmId(0),
            l1_mshr: 0,
        };
        x.send_response(resp, 10);
        x.send_response(resp, 9);
    }

    #[test]
    fn port_limited_endpoint_delivers_the_rest_on_later_cycles() {
        let mut x = xbar();
        for i in 0..3 {
            assert!(x.try_send_request(req_from(0, i), 0));
        }
        // All three arrive at cycle 4; one port takes one per cycle, and
        // the slice stays due with no further arrival to mature.
        assert_eq!(take_requests(&mut x, 100), vec![(0, 0)]);
        assert!(x.has_due());
        assert_eq!(x.next_arrival(), None);
        assert_eq!(take_requests(&mut x, 101), vec![(0, 1)]);
        assert_eq!(take_requests(&mut x, 102), vec![(0, 2)]);
        assert!(!x.has_due());
        assert!(x.is_idle());
    }

    #[test]
    fn refused_request_stays_due() {
        let mut x = xbar();
        assert!(x.try_send_request(req(0), 0));
        let mut offered = 0;
        x.deliver_due_requests(10, |_, _| {
            offered += 1;
            false
        });
        assert_eq!(offered, 1);
        assert!(x.has_due(), "a refused request is offered again");
        assert!(!x.is_idle());
        assert_eq!(take_requests(&mut x, 11), vec![(0, 0)]);
        assert!(!x.has_due());
    }

    #[test]
    fn due_endpoints_are_served_in_index_order() {
        let mut x = Crossbar::new(
            &XbarConfig {
                latency: 4,
                ports_per_endpoint: 2,
            },
            4,
            4,
        );
        // Sent in descending slice order, and slice 2's message later.
        for (now, ch) in [(0, 3), (0, 1), (1, 2), (1, 0), (1, 3)] {
            assert!(x.try_send_request(req_from(ch, u32::from(ch)), now));
        }
        assert_eq!(take_requests(&mut x, 4), vec![(1, 1), (3, 3)]);
        assert_eq!(take_requests(&mut x, 5), vec![(0, 0), (2, 2), (3, 3)]);
        for sm in [3, 0, 2] {
            x.send_response(
                L2Response {
                    loc: PhysLoc::new(0, 0),
                    dest: SmId(sm),
                    l1_mshr: 0,
                },
                6,
            );
        }
        let mut order = Vec::new();
        x.deliver_due_responses(10, |sm, _| order.push(sm));
        assert_eq!(order, vec![0, 2, 3]);
        assert!(x.is_idle());
    }

    #[test]
    fn queue_capacity_backpressures() {
        let mut x = xbar();
        let last = REQ_QUEUE_CAP as Cycle - 1;
        for now in 0..=last {
            assert!(x.try_send_request(req(0), now));
        }
        assert!(!x.try_send_request(req(0), last));
        assert_eq!(x.stats().rejects, 1);
        // The other slice's queue is unaffected.
        assert!(x.try_send_request(req(1), last));
    }

    #[test]
    fn channels_route_independently() {
        let mut x = xbar();
        x.try_send_request(req(0), 0);
        x.try_send_request(req(1), 0);
        assert_eq!(take_requests(&mut x, 10), vec![(0, 0), (1, 0)]);
    }
}
