//! The ordering layer's cost per message, exactly: the RDMA writes and
//! doorbells one multicast of each class pays, against closed forms kept
//! in [`closed_form`] (DESIGN.md §3 derives them).
//!
//! A fixed plan on 2 groups × 3 replicas at `max_batch = 1` sends one
//! message at a time, each well inside a heartbeat interval, so every
//! verb between the two snapshots around it belongs to it — but the
//! heartbeat round that may land in the window. Heartbeats are counted
//! apart and left out: each follower's heartbeat word holds its leader's
//! round counter, and a round is one write per follower.

use amcast::{GroupId, Mcast, McastConfig};
use parking_lot::Mutex;
use rdma_sim::{Fabric, FabricStats, LatencyModel};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const GROUPS: usize = 2;
const N: u64 = 3;

/// A message class: which groups a multicast addresses.
#[derive(Debug, Clone, Copy)]
enum Class {
    /// One group: the message is ordered by its group's leader alone.
    OneGroup,
    /// Two groups: their leaders exchange proposals and finals.
    TwoGroups,
}

/// Writes one message of `class` costs in groups of `n` replicas, with no
/// heartbeat, retry or retransmission. At `max_batch = 1` each write rings
/// its own doorbell, so this is the doorbell count too.
fn closed_form(class: Class, n: u64) -> u64 {
    match class {
        // The client's submission, the leader's log entry to each
        // follower, and each follower's ack.
        Class::OneGroup => 1 + (n - 1) + (n - 1),
        // Per destination group: the client's submission; the leader's
        // proposal and its final to every replica of both groups but
        // itself (followers keep them for a takeover); its log entry to
        // each follower; each follower's ack.
        Class::TwoGroups => 2 * (1 + 2 * (2 * n - 1) + (n - 1) + (n - 1)),
    }
}

/// The plan: `(destination groups, class)` of each message, in send order.
fn plan() -> Vec<(Vec<GroupId>, Class)> {
    let one = |g| (vec![GroupId(g)], Class::OneGroup);
    let two = (vec![GroupId(0), GroupId(1)], Class::TwoGroups);
    vec![
        one(0),
        two.clone(),
        one(1),
        two.clone(),
        one(0),
        one(1),
        two,
    ]
}

/// Heartbeat writes so far: every follower's word holds its leader's round
/// counter in the low half, and a round writes each follower once.
fn heartbeat_writes(mcast: &Mcast) -> u64 {
    (0..GROUPS as u16)
        .map(|g| {
            let (name, addr, _) = mcast.regions(GroupId(g), 1)[7];
            assert_eq!(name, "heartbeat");
            let word = mcast.node(GroupId(g), 1).local_read_word(addr).unwrap();
            (word & 0xFFFF_FFFF) * (N - 1)
        })
        .sum()
}

fn counts(stats: &FabricStats) -> [u64; 2] {
    [&stats.posted_writes, &stats.doorbells].map(|c| c.load(Ordering::Relaxed))
}

#[test]
fn each_message_class_costs_its_closed_form() {
    let simulation = sim::Simulation::new(3);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let nodes: Vec<Vec<_>> = (0..GROUPS)
        .map(|g| {
            (0..N)
                .map(|i| fabric.add_node(format!("g{g}r{i}")))
                .collect()
        })
        .collect();
    let mcast = Mcast::build(&fabric, nodes, McastConfig::new(GROUPS, N as usize));
    mcast.spawn_replicas(&simulation);
    let measured = Arc::new(Mutex::new(Vec::new()));
    let out = measured.clone();
    let mut client = mcast.client(&fabric.add_node("client"));
    let probe = mcast.clone();
    simulation.spawn("client", move || {
        let snapshot = || {
            let [writes, doorbells] = counts(probe.fabric().stats());
            let beats = heartbeat_writes(&probe);
            [writes - beats, doorbells - beats]
        };
        for (dests, class) in plan() {
            // Mid-interval: leaders beat every 200 µs from time 0, and a
            // message settles (acks included) well inside 200 µs.
            sim::sleep(Duration::from_micros(100));
            let before = snapshot();
            client.multicast(&dests, b"cost");
            sim::sleep(Duration::from_micros(200));
            let after = snapshot();
            out.lock()
                .push((class, [after[0] - before[0], after[1] - before[1]]));
            sim::sleep(Duration::from_micros(100));
        }
    });
    simulation.run_until(sim::SimTime::from_millis(4)).unwrap();
    let measured = measured.lock();
    assert_eq!(measured.len(), plan().len(), "the plan ran");
    for (i, &(class, [writes, doorbells])) in measured.iter().enumerate() {
        let want = closed_form(class, N);
        assert_eq!(
            (writes, doorbells),
            (want, want),
            "message {i}, class {class:?}: (writes, doorbells) against the closed form"
        );
    }
}
