//! A node's processes and its boot: what a power loss kills, and what the
//! recovery after it starts again.
//!
//! A node owns the processes its boot started. [`crate::Fabric::power_loss`]
//! kills them at the cut instant — each unwinds through its destructors and
//! runs no code of its own again. [`crate::Fabric::recover`] after a power
//! loss drops the pollers and lane arrays nobody holds any more, then runs
//! the node's boot closures once, in the order they were added; after a
//! plain crash it runs nothing, and the processes the crash paused go on.

use crate::fabric::Node;
use sim::Pid;
use std::rc::Rc;

/// One layer's share of a node's boot: it starts that layer's processes
/// through the [`Boot`] it is handed.
pub(crate) type BootFn = Rc<dyn Fn(&Boot<'_>)>;

/// A node's boot in progress: the one way to start a process that belongs
/// to the node.
pub struct Boot<'a> {
    pub(crate) node: &'a Node,
    /// The first boot runs from the host, before the simulation does; a
    /// recovery's runs in the process that calls [`crate::Fabric::recover`].
    pub(crate) simulation: Option<&'a sim::Simulation>,
}

impl Boot<'_> {
    /// Starts a process of the node, at the current virtual time: a power
    /// loss kills it.
    pub fn spawn(&self, name: impl Into<String>, f: impl FnOnce() + 'static) -> Pid {
        let pid = match self.simulation {
            Some(simulation) => simulation.spawn(name, f),
            None => sim::spawn(name, f),
        };
        self.node.inner.procs.borrow_mut().push(pid);
        pid
    }
}

impl Node {
    /// Adds `boot` to this node's boot and runs it now, on `simulation`:
    /// every process it starts through [`Boot::spawn`] belongs to the node.
    /// After each power loss, [`crate::Fabric::recover`] runs it again, from
    /// the recovering process; it must derive what it starts from what
    /// survives a power loss — durable storage, and state outside the node.
    ///
    /// The node holds `boot` for good, so `boot` must not hold the node, or
    /// anything that does, strongly: that would be a cycle nothing frees.
    pub fn boot(&self, simulation: &sim::Simulation, boot: impl Fn(&Boot<'_>) + 'static) {
        boot(&Boot {
            node: self,
            simulation: Some(simulation),
        });
        self.inner.boots.borrow_mut().push(Rc::new(boot));
    }
}

#[cfg(test)]
mod tests {
    use crate::{Addr, Fabric, FaultPlan, LatencyModel, Node};
    use sim::storage::{DiskConfig, Storage};
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

    const US: Duration = Duration::from_micros(1);

    /// Zero-latency storage: a disk write lands at the instant it is made.
    fn instant_disk() -> Storage {
        Storage::new(DiskConfig {
            write_ns_per_kib: 0,
            fsync_ns: 0,
            read_ns_per_kib: 0,
        })
    }

    /// A process that writes `addr` and the disk key `tick` every
    /// microsecond, counting on from what the disk holds.
    fn ticker(node: &Node, addr: Addr, disk: sim::storage::Disk) -> impl FnOnce() + 'static {
        let node = node.clone();
        move || {
            let at = |v: Vec<u8>| u64::from_le_bytes(v.try_into().expect("a word"));
            let mut tick = disk.get("tick").map_or(0, at);
            loop {
                tick += 1;
                node.local_write_word(addr, tick).unwrap();
                disk.put("tick", &tick.to_le_bytes());
                sim::sleep(US);
            }
        }
    }

    /// A process on a powered-off node runs nothing: after the cut at
    /// 10 µs neither its memory word nor its disk key changes until the
    /// boot at 30 µs writes them, while a process on another node runs on.
    #[test]
    fn a_power_loss_stops_the_nodes_processes_until_a_boot() {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::zero());
        let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
        let addr = a.alloc_words(1);
        let storage = instant_disk();
        let disk = storage.disk("a");
        let node = a.clone();
        a.boot(&simulation, move |boot| {
            boot.spawn("ticker", ticker(&node, addr, disk.clone()));
        });
        let b_ticks = Rc::new(Cell::new(0u64));
        let ticks = Rc::clone(&b_ticks);
        b.boot(&simulation, move |boot| {
            let ticks = Rc::clone(&ticks);
            boot.spawn("other-node", move || loop {
                ticks.set(ticks.get() + 1);
                sim::sleep(US);
            });
        });
        FaultPlan::new(1)
            .power_loss_at(a.id(), 10 * US)
            .recover_at(a.id(), 30 * US)
            .arm(&simulation, &fabric);
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let (log, disk) = (Rc::clone(&seen), storage.disk("a"));
        let ticks = Rc::clone(&b_ticks);
        simulation.spawn("observer", move || {
            // Half a tick off the writers' instants.
            sim::sleep_ns(500);
            for _ in 0..40 {
                let word = a.local_read_word(addr).unwrap();
                let key = disk.get("tick").map(|v| v[0]);
                log.borrow_mut()
                    .push((sim::now().as_nanos(), word, key, ticks.get()));
                sim::sleep(US);
            }
        });
        simulation
            .run_until(sim::SimTime::from_nanos(40_000))
            .unwrap();
        let seen = seen.borrow();
        let at = |ns: u64| *seen.iter().find(|s| s.0 == ns).expect("observed");
        // Before the cut the ticker wrote 10 times (0, 1, …, 9 µs).
        assert_eq!(at(9_500).1, 10);
        assert_eq!(at(9_500).2, Some(10));
        for ns in (10_500..30_000).step_by(1_000) {
            assert_eq!(at(ns).1, 0, "memory written at {ns} ns, after the cut");
            assert_eq!(at(ns).2, Some(10), "disk written at {ns} ns, after the cut");
        }
        // The boot counts on from the disk.
        assert_eq!(at(30_500).1, 11);
        assert_eq!(at(30_500).2, Some(11));
        assert!(at(29_500).3 >= 29, "the other node's process ran on");
    }

    /// `recover` runs the boot once per power cycle and never after a
    /// plain crash, however they interleave.
    #[test]
    fn recover_boots_once_per_power_cycle_and_never_after_a_crash() {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let boots = Rc::new(Cell::new(0));
        let count = Rc::clone(&boots);
        n.boot(&simulation, move |boot| {
            count.set(count.get() + 1);
            boot.spawn("idle", || loop {
                sim::sleep(US);
            });
        });
        let counted = Rc::clone(&boots);
        let id = n.id();
        simulation.spawn("faults", move || {
            let step = |what: &dyn Fn(), expect: u32| {
                what();
                sim::sleep(US);
                assert_eq!(counted.get(), expect);
            };
            step(&|| fabric.crash(id), 1);
            step(&|| fabric.recover(id), 1);
            step(&|| fabric.power_loss(id), 1);
            step(&|| fabric.recover(id), 2);
            step(&|| fabric.recover(id), 2);
            step(&|| fabric.power_loss(id), 2);
            step(&|| fabric.crash(id), 2);
            step(&|| fabric.power_loss(id), 2);
            step(&|| fabric.recover(id), 3);
            step(&|| fabric.crash(id), 3);
            step(&|| fabric.recover(id), 3);
        });
        simulation
            .run_until(sim::SimTime::from_nanos(100_000))
            .unwrap();
        assert_eq!(boots.get(), 3);
    }

    /// What a killed process held goes with it, whether it registered it
    /// or its boot did: after three power cycles the node has the pollers
    /// and lane arrays of one boot.
    #[test]
    fn a_power_loss_drops_what_the_killed_processes_registered() {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let lanes = n.alloc_bytes(4 * 16);
        // Registered by the host: it outlives every boot.
        let _host = n.poller(sim::Cond::new(), &[(lanes, 8)]);
        let node = n.clone();
        n.boot(&simulation, move |boot| {
            let node = node.clone();
            let handed = node.poller(sim::Cond::new(), &[(lanes, 16)]);
            boot.spawn("poller", move || {
                let poller = node.poller(sim::Cond::new(), &[(lanes, 64)]);
                let _marks = node.lane_marks(lanes, 16, 4);
                let _handed = handed;
                poller.poll_until(|| false);
            });
        });
        let counts = |n: &Node| {
            (
                n.inner.subs.borrow().len(),
                n.inner.lane_arrays.borrow().len(),
            )
        };
        let booted = Rc::new(Cell::new((0, 0)));
        let (after_first, after_last) = (Rc::clone(&booted), Rc::new(Cell::new((0, 0))));
        let last = Rc::clone(&after_last);
        let node = n.clone();
        simulation.spawn("faults", move || {
            sim::sleep(US);
            after_first.set(counts(&node));
            for _ in 0..3 {
                fabric.power_loss(node.id());
                sim::sleep(US);
                fabric.recover(node.id());
                sim::sleep(US);
            }
            last.set(counts(&node));
        });
        simulation
            .run_until(sim::SimTime::from_nanos(100_000))
            .unwrap();
        assert_eq!(booted.get(), (3, 1));
        assert_eq!(after_last.get(), booted.get());
    }
}
