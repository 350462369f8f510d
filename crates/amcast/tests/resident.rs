//! A log slot holds a small entry: the pages a replica commits for its copy
//! of the group log are the entries' `LOG_SLOT`-byte slots, not slots sized
//! for the largest payload, and a log that never spills commits no page of
//! its spill ring. Counted with `rdma_sim::Node::resident_pages`, which
//! reads Linux's `/proc/self/pagemap`.

use amcast::{DeliveryEvent, GroupId, Mcast, McastConfig, LOG_SLOT};
use rdma_sim::{Fabric, LatencyModel};
use sim::{SimTime, Simulation};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

/// Host page size on x86-64 Linux.
const PAGE: usize = 4096;

#[test]
fn small_multicasts_commit_one_log_slot_each_and_no_spill_page() {
    const MESSAGES: usize = 4096;
    let simulation = Simulation::new(7);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let nodes = vec![(0..3).map(|i| fabric.add_node(format!("g0r{i}"))).collect()];
    let mcast = Mcast::build(&fabric, nodes, McastConfig::new(1, 3));
    mcast.spawn_replicas(&simulation);
    let delivered: Vec<Rc<Cell<usize>>> = (0..3).map(|_| Rc::default()).collect();
    for (i, count) in delivered.iter().enumerate() {
        let (rx, count) = (mcast.deliveries(GroupId(0), i), Rc::clone(count));
        simulation.spawn(format!("consumer-{i}"), move || loop {
            if let DeliveryEvent::Deliver(_) = rx.recv() {
                count.set(count.get() + 1);
            }
        });
    }
    let mut client = mcast.client(&fabric.add_node("client"));
    let counts = delivered.clone();
    simulation.spawn("client", move || {
        for m in 0..MESSAGES {
            // A 32-byte request: an 80-byte log entry.
            client.multicast(&[GroupId(0)], &[m as u8; 32]);
            while counts.iter().any(|c| c.get() <= m) {
                sim::sleep(Duration::from_micros(2));
            }
        }
    });
    simulation.run_until(SimTime::from_millis(500)).unwrap();
    assert!(delivered.iter().all(|c| c.get() == MESSAGES));

    let pages = |idx: usize, name: &str| {
        let regions = mcast.regions(GroupId(0), idx);
        let &(_, addr, len) = regions.iter().find(|r| r.0 == name).expect("region");
        mcast
            .node(GroupId(0), idx)
            .resident_pages(addr, len)
            .unwrap()
    };
    let log_pages = (MESSAGES * LOG_SLOT).div_ceil(PAGE);
    for idx in 0..3 {
        assert_eq!(pages(idx, "log"), log_pages, "replica {idx}'s log");
        assert_eq!(pages(idx, "log-spill"), 0, "replica {idx}'s spill ring");
    }
}
