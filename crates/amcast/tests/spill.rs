//! Log entries whose payload is too long for a log slot spill to the spill
//! ring beside the log. No benchmark request spills, so these tests send
//! payloads at the edges — empty, exactly `LOG_INLINE` bytes, one byte
//! more, and `max_payload` — down every path that writes or reads the log:
//! the leader's append and the followers' apply, the leader's
//! retransmission to a follower that was down, a takeover's fetch from the
//! longest log, and a WAL reload after a power cut. Every replica must
//! deliver the bytes that were sent.

use amcast::{
    DeliveryEvent, GroupId, Mcast, McastClient, McastConfig, MsgId, Timestamp, LOG_INLINE,
};
use rdma_sim::Fabric;
use sim::storage::{DiskConfig, Storage};
use sim::{SimTime, Simulation};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

type Delivery = (MsgId, Timestamp, Vec<u8>);
type Deliveries = Rc<RefCell<Vec<Vec<Delivery>>>>;

/// The payload sizes at the edges of the placement rule.
fn sizes() -> [usize; 4] {
    [
        0,
        LOG_INLINE,
        LOG_INLINE + 1,
        McastConfig::new(1, 3).max_payload,
    ]
}

/// Message `i`'s payload: as long as the `i % 4`-th size, in bytes no
/// other message repeats.
fn payload(i: usize) -> Vec<u8> {
    (0..sizes()[i % 4])
        .map(|b| (b * 31 + i * 7 + 1) as u8)
        .collect()
}

/// The payloads of the two rounds every test sends.
fn sent() -> Vec<Vec<u8>> {
    (0..8).map(payload).collect()
}

struct Group {
    simulation: Simulation,
    fabric: Fabric,
    mcast: Mcast,
    delivered: Deliveries,
}

/// One group of three with a WAL, each replica's deliveries recorded.
fn group(seed: u64) -> Group {
    let simulation = Simulation::new(seed);
    let fabric = Fabric::new(rdma_sim::LatencyModel::connectx4());
    let nodes = vec![(0..3).map(|i| fabric.add_node(format!("g0r{i}"))).collect()];
    let mcast = Mcast::build(&fabric, nodes, McastConfig::new(1, 3));
    mcast.attach_wal(&Storage::new(DiskConfig::nvme()));
    mcast.spawn_replicas(&simulation);
    let delivered: Deliveries = Rc::new(RefCell::new(vec![Vec::new(); 3]));
    for i in 0..3 {
        let (rx, log) = (mcast.deliveries(GroupId(0), i), Rc::clone(&delivered));
        simulation.spawn(format!("consumer-{i}"), move || loop {
            if let DeliveryEvent::Deliver(d) = rx.recv() {
                log.borrow_mut()[i].push((d.id, d.ts, d.payload.to_vec()));
            }
        });
    }
    Group {
        simulation,
        fabric,
        mcast,
        delivered,
    }
}

/// Sleeps until every replica of `replicas` has delivered `count`
/// messages.
fn await_count(delivered: &Deliveries, replicas: &[usize], count: usize) {
    while replicas
        .iter()
        .any(|&r| delivered.borrow()[r].len() < count)
    {
        sim::sleep(Duration::from_micros(50));
    }
}

/// Multicasts round `round`: one message of every size, each delivered by
/// `replicas` before the next goes out.
fn send_round(client: &mut McastClient, delivered: &Deliveries, replicas: &[usize], round: usize) {
    for i in 4 * round..4 * round + 4 {
        let count = delivered.borrow()[replicas[0]].len() + 1;
        client.multicast(&[GroupId(0)], &payload(i));
        await_count(delivered, replicas, count);
    }
}

/// Runs `script` as the group's driver, off every replica node, and
/// returns each replica's deliveries.
fn run(seed: u64, script: impl FnOnce(&Group, McastClient) + 'static) -> Vec<Vec<Delivery>> {
    let g = Rc::new(group(seed));
    let client = g.mcast.client(&g.fabric.add_node("client"));
    let driver = Rc::clone(&g);
    g.simulation
        .spawn("driver", move || script(&driver, client));
    g.simulation.run_until(SimTime::from_millis(60)).unwrap();
    let delivered = g.delivered.borrow().clone();
    delivered
}

/// Every replica delivered both rounds, in one order with one timestamp
/// each, byte for byte as sent.
fn assert_delivered(delivered: &[Vec<Delivery>]) {
    for (r, log) in delivered.iter().enumerate() {
        let got: Vec<&Vec<u8>> = log.iter().map(|d| &d.2).collect();
        assert!(
            got.into_iter().eq(&sent()),
            "replica {r} delivered other bytes"
        );
        assert_eq!(log, &delivered[0], "replica {r} disagrees with replica 0");
    }
}

#[test]
fn the_leader_appends_and_followers_apply_spilled_entries() {
    let delivered = run(41, |g, mut client| {
        for round in 0..2 {
            send_round(&mut client, &g.delivered, &[0, 1, 2], round);
        }
    });
    assert_delivered(&delivered);
}

#[test]
fn a_follower_that_was_down_gets_spilled_entries_retransmitted() {
    let delivered = run(42, |g, mut client| {
        let (d, down) = (&g.delivered, g.mcast.node(GroupId(0), 2).id());
        send_round(&mut client, d, &[0, 1, 2], 0);
        g.fabric.crash(down);
        send_round(&mut client, d, &[0, 1], 1);
        g.fabric.recover(down);
        await_count(d, &[2], 8);
    });
    assert_delivered(&delivered);
}

/// Replica 1 misses a round while down, comes back as the leader crashes,
/// and takes over in epoch 1: it fetches the round from replica 2's log.
#[test]
fn a_takeover_fetches_spilled_entries_from_the_longest_log() {
    let delivered = run(43, |g, mut client| {
        let node = |i| g.mcast.node(GroupId(0), i).id();
        let d = &g.delivered;
        send_round(&mut client, d, &[0, 1, 2], 0);
        g.fabric.crash(node(1));
        send_round(&mut client, d, &[0, 2], 1);
        g.fabric.crash(node(0));
        g.fabric.recover(node(1));
        await_count(d, &[1], 8);
    });
    assert_delivered(&delivered);
}

/// Replica 1 misses a round while down; then the whole group loses power
/// and reloads its logs from the WALs. Replica 1 takes over in epoch 1 and
/// fetches the round from replica 0's reloaded log.
#[test]
fn a_wal_reload_puts_spilled_entries_back_where_a_takeover_reads_them() {
    let delivered = run(44, |g, mut client| {
        let node = |i| g.mcast.node(GroupId(0), i).id();
        let d = &g.delivered;
        send_round(&mut client, d, &[0, 1, 2], 0);
        g.fabric.crash(node(1));
        send_round(&mut client, d, &[0, 2], 1);
        (0..3).for_each(|i| g.fabric.power_loss(node(i)));
        sim::sleep(Duration::from_millis(1));
        (0..3).for_each(|i| g.fabric.recover(node(i)));
        await_count(d, &[1], 8);
    });
    assert_delivered(&delivered);
}
