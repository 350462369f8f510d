//! Simulated message-passing network with configurable latency and
//! bandwidth.
//!
//! This is the substrate for the DynaStar baseline: a conventional
//! kernel/TCP network, in contrast to the RDMA fabric of `rdma-sim`.
//! The default latency model matches the paper's testbed description of
//! "around 0.1 ms round-trip time" plus per-message CPU cost for the socket
//! stack — the overheads Heron avoids (paper §V-C2).
//!
//! The network is generic over the message type `M`, so protocols exchange
//! typed values; the caller supplies a wire-size estimate per message for
//! the bandwidth term.
//!
//! # Example
//!
//! ```
//! use netsim::{Network, NetLatency};
//!
//! let simulation = sim::Simulation::new(3);
//! let net = Network::new(NetLatency::datacenter_tcp());
//! let a = net.add_endpoint("a");
//! let b = net.add_endpoint("b");
//! let b_id = b.id();
//!
//! simulation.spawn("a", move || {
//!     a.send(b_id, "hello".to_string(), 5);
//! });
//! simulation.spawn("b", move || {
//!     let (from, msg) = b.recv();
//!     assert_eq!(msg, "hello");
//!     assert!(sim::now().as_micros() >= 50); // one-way ≈ 50 µs
//!     let _ = from;
//! });
//! simulation.run().unwrap();
//! ```
#![forbid(unsafe_code)]
// A `for` over a `HashMap`/`HashSet` runs in `RandomState` order, which
// differs per process: anything it posts, or reports first, stops replaying.
#![deny(clippy::iter_over_hash_type)]

use sim::Mailbox;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// Identifier of a network endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(pub u32);

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep#{}", self.0)
    }
}

/// Latency model for the message-passing network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetLatency {
    /// Sender-side CPU cost per message (syscall, copies, protocol stack).
    pub send_cpu_ns: u64,
    /// One-way propagation latency for a minimum-size message.
    pub one_way_ns: u64,
    /// Serialization cost per KiB of payload.
    pub ns_per_kib: u64,
}

impl NetLatency {
    /// The paper's testbed as seen by a kernel/TCP application:
    /// ~0.1 ms round trip plus socket-stack CPU per message.
    pub const fn datacenter_tcp() -> Self {
        NetLatency {
            send_cpu_ns: 3_000,
            one_way_ns: 50_000,
            ns_per_kib: 328, // same 25 Gbps link as the RDMA fabric
        }
    }

    /// Zero latency, for logic-only tests.
    pub const fn zero() -> Self {
        NetLatency {
            send_cpu_ns: 0,
            one_way_ns: 0,
            ns_per_kib: 0,
        }
    }

    /// One-way latency for a message of `bytes`.
    pub const fn one_way(&self, bytes: usize) -> u64 {
        self.one_way_ns + (bytes as u64 * self.ns_per_kib) / 1024
    }
}

impl Default for NetLatency {
    fn default() -> Self {
        Self::datacenter_tcp()
    }
}

/// Busy-until times of every directed link, stored as a dense `n x n`
/// matrix indexed by endpoint ids: per-send lookup is a multiply and an
/// add instead of a hash. Grows (with re-indexing) the first time an id
/// beyond the current bound appears.
#[derive(Default)]
struct LinkClocks {
    n: usize,
    clocks: Vec<u64>,
}

impl LinkClocks {
    /// Mutable busy-until slot for the `src -> dst` link.
    fn slot(&mut self, src: EndpointId, dst: EndpointId) -> &mut u64 {
        let need = (src.0.max(dst.0) as usize) + 1;
        if need > self.n {
            let new_n = need.next_power_of_two().max(4);
            let mut grown = vec![0u64; new_n * new_n];
            for s in 0..self.n {
                grown[s * new_n..s * new_n + self.n]
                    .copy_from_slice(&self.clocks[s * self.n..(s + 1) * self.n]);
            }
            self.n = new_n;
            self.clocks = grown;
        }
        &mut self.clocks[src.0 as usize * self.n + dst.0 as usize]
    }
}

struct EndpointInner<M> {
    id: EndpointId,
    name: String,
    inbox: Mailbox<(EndpointId, M)>,
    alive: Cell<bool>,
}

struct NetworkInner<M> {
    latency: NetLatency,
    endpoints: RefCell<Vec<Rc<EndpointInner<M>>>>,
    /// Per directed link: virtual time of the last scheduled delivery,
    /// enforcing FIFO (TCP-like) ordering.
    link_clock: RefCell<LinkClocks>,
}

/// A simulated network carrying messages of type `M`. Like the
/// simulation that drives it, it lives on one thread.
pub struct Network<M> {
    inner: Rc<NetworkInner<M>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("endpoints", &self.inner.endpoints.borrow().len())
            .field("latency", &self.inner.latency)
            .finish()
    }
}

impl<M: 'static> Network<M> {
    /// Creates a network with the given latency model.
    pub fn new(latency: NetLatency) -> Self {
        Network {
            inner: Rc::new(NetworkInner {
                latency,
                endpoints: RefCell::new(Vec::new()),
                link_clock: RefCell::new(LinkClocks::default()),
            }),
        }
    }

    /// Registers a new endpoint.
    pub fn add_endpoint(&self, name: impl Into<String>) -> Endpoint<M> {
        let mut eps = self.inner.endpoints.borrow_mut();
        let id = EndpointId(eps.len() as u32);
        let inner = Rc::new(EndpointInner {
            id,
            name: name.into(),
            inbox: Mailbox::new(),
            alive: Cell::new(true),
        });
        eps.push(Rc::clone(&inner));
        Endpoint {
            inner,
            net: Rc::clone(&self.inner),
        }
    }

    /// Returns a handle to an existing endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`Network::add_endpoint`].
    pub fn endpoint(&self, id: EndpointId) -> Endpoint<M> {
        Endpoint {
            inner: self.inner.endpoint(id),
            net: Rc::clone(&self.inner),
        }
    }

    /// Marks an endpoint crashed: messages to it are dropped, and its
    /// sends fail silently.
    pub fn crash(&self, id: EndpointId) {
        self.inner.endpoint(id).alive.set(false);
    }

    /// Revives a crashed endpoint. Messages dropped meanwhile stay lost.
    pub fn recover(&self, id: EndpointId) {
        self.inner.endpoint(id).alive.set(true);
    }

    /// Whether the endpoint is alive.
    pub fn is_alive(&self, id: EndpointId) -> bool {
        self.inner.endpoint(id).alive.get()
    }

    /// The latency model in force.
    pub fn latency(&self) -> NetLatency {
        self.inner.latency
    }
}

impl<M> NetworkInner<M> {
    fn endpoint(&self, id: EndpointId) -> Rc<EndpointInner<M>> {
        Rc::clone(&self.endpoints.borrow()[id.0 as usize])
    }
}

/// One endpoint of a [`Network`]. Cloneable; clones share the inbox.
pub struct Endpoint<M> {
    inner: Rc<EndpointInner<M>>,
    net: Rc<NetworkInner<M>>,
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint {
            inner: Rc::clone(&self.inner),
            net: Rc::clone(&self.net),
        }
    }
}

impl<M> fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .finish()
    }
}

impl<M: 'static> Endpoint<M> {
    /// This endpoint's id.
    pub fn id(&self) -> EndpointId {
        self.inner.id
    }

    /// The name given at registration.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Sends `msg` (whose serialized size is `wire_bytes`) to `dst`.
    ///
    /// Charges the sender its CPU cost; the message arrives after the
    /// one-way latency, in FIFO order per (src, dst) link. Messages to (or
    /// from) crashed endpoints are dropped silently, like a broken TCP
    /// connection discovered later.
    pub fn send(&self, dst: EndpointId, msg: M, wire_bytes: usize) {
        if !self.inner.alive.get() {
            return;
        }
        let lat = self.net.latency;
        sim::sleep_ns(lat.send_cpu_ns);
        // Store-and-forward: the link transmits one message at a time at
        // link bandwidth (FIFO, like a TCP connection), then propagates.
        let arrive_delay = {
            let now = sim::now().as_nanos();
            let ser = (wire_bytes as u64 * lat.ns_per_kib) / 1024;
            let mut clocks = self.net.link_clock.borrow_mut();
            let link_free = clocks.slot(self.inner.id, dst);
            let send_end = now.max(*link_free) + ser;
            *link_free = send_end;
            send_end + lat.one_way_ns - now
        };
        let net = &self.net;
        let target = net.endpoint(dst);
        let from = self.inner.id;
        sim::schedule_ns(arrive_delay, move || {
            if target.alive.get() {
                // Silently lost if every receiving process has crashed,
                // like a datagram into a dead host.
                let _ = target.inbox.send((from, msg));
            }
        });
    }

    /// Blocks until a message arrives; returns `(sender, message)`.
    pub fn recv(&self) -> (EndpointId, M) {
        self.inner.inbox.recv()
    }

    /// Blocks until a message arrives or the timeout elapses.
    ///
    /// # Errors
    ///
    /// Returns [`sim::RecvTimeoutError`] on timeout.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<(EndpointId, M), sim::RecvTimeoutError> {
        self.inner.inbox.recv_timeout(timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<(EndpointId, M)> {
        self.inner.inbox.try_recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_arrives_after_one_way_latency() {
        let simulation = sim::Simulation::new(1);
        let net: Network<u32> = Network::new(NetLatency::datacenter_tcp());
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let b_id = b.id();
        simulation.spawn("a", move || {
            a.send(b_id, 42, 8);
        });
        simulation.spawn("b", move || {
            let (_, v) = b.recv();
            assert_eq!(v, 42);
            let lat = NetLatency::datacenter_tcp();
            assert_eq!(sim::now().as_nanos(), lat.send_cpu_ns + lat.one_way(8));
        });
        simulation.run().unwrap();
    }

    #[test]
    fn per_link_fifo_holds_even_for_mixed_sizes() {
        let simulation = sim::Simulation::new(1);
        let net: Network<u32> = Network::new(NetLatency::datacenter_tcp());
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let b_id = b.id();
        simulation.spawn("a", move || {
            a.send(b_id, 1, 1_000_000); // huge, slow message first
            a.send(b_id, 2, 8); // tiny message second
        });
        simulation.spawn("b", move || {
            assert_eq!(b.recv().1, 1);
            assert_eq!(b.recv().1, 2);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn crashed_endpoint_drops_messages() {
        let simulation = sim::Simulation::new(1);
        let net: Network<u32> = Network::new(NetLatency::zero());
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let b2 = b.clone();
        let (b_id, net2) = (b.id(), net.clone());
        simulation.spawn("a", move || {
            net2.crash(b_id);
            a.send(b_id, 7, 8);
            sim::sleep(Duration::from_millis(1));
            net2.recover(b_id);
            assert_eq!(b2.try_recv(), None);
            a.send(b_id, 8, 8);
        });
        simulation.spawn("b", move || {
            let (_, v) = b.recv();
            assert_eq!(v, 8);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn recv_timeout_expires_without_traffic() {
        let simulation = sim::Simulation::new(1);
        let net: Network<u32> = Network::new(NetLatency::zero());
        let b = net.add_endpoint("b");
        simulation.spawn("b", move || {
            assert!(b.recv_timeout(Duration::from_micros(5)).is_err());
            assert_eq!(sim::now().as_micros(), 5);
        });
        simulation.run().unwrap();
    }
}
