//! Durable-WAL recovery tests: a group that loses power (registered memory
//! wiped) rebuilds its protocol state from the per-replica write-ahead
//! logs — delivered messages stay delivered exactly once, sequencing
//! resumes where it left off, and truncation behind a checkpoint horizon
//! keeps the WAL bounded without reopening the delivery dedup.

use amcast::{DeliveryEvent, GroupId, Mcast, McastConfig, MsgId, Timestamp};
use parking_lot::Mutex;
use rdma_sim::{Fabric, FaultPlan, LatencyModel};
use sim::storage::{DiskConfig, Storage};
use sim::{SimTime, Simulation};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

type DeliveryLog = Arc<Mutex<Vec<Vec<(MsgId, Timestamp)>>>>;

struct Harness {
    simulation: Simulation,
    mcast: Mcast,
    fabric: Fabric,
    logs: DeliveryLog,
}

fn build_durable(seed: u64, n: usize) -> Harness {
    let simulation = Simulation::new(seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let storage = Storage::new(DiskConfig::nvme());
    let nodes: Vec<Vec<_>> = vec![(0..n).map(|i| fabric.add_node(format!("g0r{i}"))).collect()];
    let mcast = Mcast::build(&fabric, nodes, McastConfig::new(1, n));
    mcast.attach_wal(&storage);
    mcast.spawn_replicas(&simulation);
    let logs: DeliveryLog = Arc::new(Mutex::new(vec![Vec::new(); n]));
    for i in 0..n {
        let rx = mcast.deliveries(GroupId(0), i);
        let logs = logs.clone();
        simulation.spawn(format!("consumer-g0r{i}"), move || loop {
            match rx.recv() {
                DeliveryEvent::Deliver(d) => logs.lock()[i].push((d.id, d.ts)),
                DeliveryEvent::Gap { .. } => {}
            }
        });
    }
    Harness {
        simulation,
        mcast,
        fabric,
        logs,
    }
}

/// Multicasts `payload`, resubmitting until every replica in `replicas`
/// has delivered it.
fn send_until_delivered(
    client: &mut amcast::McastClient,
    logs: &DeliveryLog,
    replicas: &[usize],
    payload: &[u8],
) -> MsgId {
    let uid = client.multicast(&[GroupId(0)], payload);
    loop {
        sim::sleep(Duration::from_micros(200));
        let l = logs.lock();
        if replicas
            .iter()
            .all(|&r| l[r].iter().any(|(m, _)| *m == uid))
        {
            return uid;
        }
        drop(l);
        client.resubmit(uid, &[GroupId(0)], payload);
    }
}

#[test]
fn whole_group_power_loss_recovers_from_wal() {
    let h = build_durable(21, 3);
    let mut plan = FaultPlan::new(21);
    for i in 0..3 {
        let id = h.mcast.node(GroupId(0), i).id();
        plan = plan
            .power_loss_at(id, Duration::from_millis(3))
            .recover_at(id, Duration::from_millis(5));
    }
    plan.arm(&h.simulation, &h.fabric);

    let logs = h.logs.clone();
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    h.simulation.spawn("client", move || {
        // Phase 1: deliver 10 messages everywhere before the lights go out.
        for i in 0..10u32 {
            send_until_delivered(&mut client, &logs, &[0, 1, 2], &i.to_le_bytes());
        }
        // Phase 2: wait out the blackout, then 5 more through the
        // recovered group.
        sim::sleep(Duration::from_millis(7));
        for i in 10..15u32 {
            send_until_delivered(&mut client, &logs, &[0, 1, 2], &i.to_le_bytes());
        }
    });
    h.simulation.run_until(SimTime::from_millis(400)).unwrap();

    let logs = h.logs.lock();
    for r in 0..3 {
        assert_eq!(
            logs[r].len(),
            15,
            "replica {r} delivered {} messages: {:?}",
            logs[r].len(),
            logs[r]
        );
        let uids: HashSet<MsgId> = logs[r].iter().map(|(m, _)| *m).collect();
        assert_eq!(uids.len(), 15, "duplicate delivery at replica {r}");
        let ts: Vec<_> = logs[r].iter().map(|(_, t)| *t).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted, "non-monotone delivery at replica {r}");
    }
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
    // Every replica's WAL holds exactly the 15 deliveries.
    for r in 0..3 {
        assert_eq!(h.mcast.wal_frames(GroupId(0), r), 15, "WAL of replica {r}");
    }
}

#[test]
fn truncated_wal_preserves_position_and_dedup_across_power_loss() {
    let h = build_durable(22, 3);
    let mut plan = FaultPlan::new(22);
    for i in 0..3 {
        let id = h.mcast.node(GroupId(0), i).id();
        plan = plan
            .power_loss_at(id, Duration::from_millis(6))
            .recover_at(id, Duration::from_millis(8));
    }
    plan.arm(&h.simulation, &h.fabric);

    let logs = h.logs.clone();
    let mcast = h.mcast.clone();
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    let old_uid = Arc::new(Mutex::new(MsgId(0)));
    let old_uid2 = old_uid.clone();
    h.simulation.spawn("client", move || {
        let mut uids = Vec::new();
        for i in 0..20u32 {
            uids.push(send_until_delivered(
                &mut client,
                &logs,
                &[0, 1, 2],
                &i.to_le_bytes(),
            ));
        }
        *old_uid2.lock() = uids[3];
        // Checkpoint horizon: everything up to and including the 10th
        // delivery. Truncate every replica's WAL behind it.
        let bound = logs.lock()[0][9].1.raw();
        for r in 0..3 {
            let (dropped, remaining) = mcast.truncate_wal(GroupId(0), r, bound);
            assert_eq!(dropped, 10, "replica {r} dropped");
            assert_eq!(remaining, 10, "replica {r} remaining");
        }
        // Blackout happens at 6ms; wait it out.
        sim::sleep(Duration::from_millis(10));
        // The group must still sequence fresh messages after reloading
        // from the truncated WAL...
        for i in 20..25u32 {
            send_until_delivered(&mut client, &logs, &[0, 1, 2], &i.to_le_bytes());
        }
        // ...and must NOT re-deliver a message whose frame was truncated
        // away, even if its client resubmits it.
        for _ in 0..5 {
            client.resubmit(uids[3], &[GroupId(0)], &3u32.to_le_bytes());
            sim::sleep(Duration::from_millis(1));
        }
    });
    h.simulation.run_until(SimTime::from_millis(400)).unwrap();

    let logs = h.logs.lock();
    let old = *old_uid.lock();
    for r in 0..3 {
        assert_eq!(
            logs[r].len(),
            25,
            "replica {r} delivered {} messages",
            logs[r].len()
        );
        let uids: HashSet<MsgId> = logs[r].iter().map(|(m, _)| *m).collect();
        assert_eq!(uids.len(), 25, "duplicate delivery at replica {r}");
        assert_eq!(
            logs[r].iter().filter(|(m, _)| *m == old).count(),
            1,
            "truncated message re-delivered at replica {r}"
        );
    }
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
    // The WAL stayed bounded: 10 kept at truncation + the 5 new ones.
    for r in 0..3 {
        assert_eq!(h.mcast.wal_frames(GroupId(0), r), 15, "WAL of replica {r}");
    }
}

/// A single-replica group that loses power, or crashes, leads again once
/// it is back: nobody else can lead it, and its log is the whole committed
/// log (after a power cut, the one its WAL rebuilds).
fn single_replica_group_resumes_leading(seed: u64, power_cut: bool, until: SimTime) {
    let h = build_durable(seed, 1);
    let id = h.mcast.node(GroupId(0), 0).id();
    let at = Duration::from_millis(2);
    let plan = FaultPlan::new(seed);
    let plan = if power_cut {
        plan.power_loss_at(id, at)
    } else {
        plan.crash_at(id, at)
    };
    plan.recover_at(id, Duration::from_millis(4))
        .arm(&h.simulation, &h.fabric);

    let logs = h.logs.clone();
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    h.simulation.spawn("client", move || {
        for i in 0..5u32 {
            send_until_delivered(&mut client, &logs, &[0], &i.to_le_bytes());
        }
        sim::sleep(Duration::from_millis(5));
        for i in 5..10u32 {
            send_until_delivered(&mut client, &logs, &[0], &i.to_le_bytes());
        }
    });
    h.simulation.run_until(until).unwrap();

    let logs = h.logs.lock();
    assert_eq!(logs[0].len(), 10);
    let uids: HashSet<MsgId> = logs[0].iter().map(|(m, _)| *m).collect();
    assert_eq!(uids.len(), 10, "duplicate delivery");
    assert_eq!(h.mcast.wal_frames(GroupId(0), 0), 10);
}

#[test]
fn single_replica_group_resumes_leading_after_power_loss() {
    single_replica_group_resumes_leading(23, true, SimTime::from_millis(200));
}

#[test]
fn single_replica_group_resumes_leading_after_a_crash() {
    single_replica_group_resumes_leading(26, false, SimTime::from_millis(20));
}

/// A replica booted after a power cut does not know where in its wiped
/// submission lane a client's next entry lands: the client's stamps went
/// on past the cursor the boot starts from. However long the lane stays
/// quiet, the first entry that lands is read at once — without a retry,
/// and without waiting for the client to lap the ring.
#[test]
fn a_booted_replica_reads_a_lane_first_written_long_after_the_boot() {
    let h = build_durable(27, 1);
    let id = h.mcast.node(GroupId(0), 0).id();
    FaultPlan::new(27)
        .power_loss_at(id, Duration::from_millis(2))
        .recover_at(id, Duration::from_millis(4))
        .arm(&h.simulation, &h.fabric);

    let logs = h.logs.clone();
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    let found = Arc::new(Mutex::new(None));
    let seen = found.clone();
    h.simulation.spawn("client", move || {
        for i in 0..5u32 {
            send_until_delivered(&mut client, &logs, &[0], &i.to_le_bytes());
        }
        sim::sleep(Duration::from_millis(100));
        let uid = client.multicast(&[GroupId(0)], b"late");
        sim::sleep(Duration::from_millis(1));
        *seen.lock() = Some(logs.lock()[0].iter().any(|(m, _)| *m == uid));
    });
    h.simulation.run_until(SimTime::from_millis(200)).unwrap();

    assert_eq!(*found.lock(), Some(true));
}

/// Truncates every frame of every replica's WAL behind the last delivery,
/// cuts power to the whole group and recovers it, then sends five more
/// messages. The booted replicas hold no frame, only the floor record:
/// the clock they resume from must come from the floor's timestamp bound,
/// or the new messages would be ordered below deliveries the application
/// has already applied.
fn empty_wal_boot_orders_after_the_floor(seed: u64, n: usize) {
    let h = build_durable(seed, n);
    let mut plan = FaultPlan::new(seed);
    for i in 0..n {
        let id = h.mcast.node(GroupId(0), i).id();
        plan = plan
            .power_loss_at(id, Duration::from_millis(8))
            .recover_at(id, Duration::from_millis(10));
    }
    plan.arm(&h.simulation, &h.fabric);

    let logs = h.logs.clone();
    let mcast = h.mcast.clone();
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    let replicas: Vec<usize> = (0..n).collect();
    let bound = Arc::new(Mutex::new(0u64));
    let bound2 = bound.clone();
    h.simulation.spawn("client", move || {
        // More messages than a takeover's clock jump (16), so a clock
        // rebuilt from nothing lands below the last delivery.
        for i in 0..24u32 {
            send_until_delivered(&mut client, &logs, &replicas, &i.to_le_bytes());
        }
        let last = logs.lock()[0].last().unwrap().1.raw();
        *bound2.lock() = last;
        for r in 0..n {
            assert_eq!(
                mcast.truncate_wal(GroupId(0), r, last),
                (24, 0),
                "replica {r}"
            );
        }
        sim::sleep(Duration::from_millis(10));
        for i in 24..29u32 {
            send_until_delivered(&mut client, &logs, &replicas, &i.to_le_bytes());
        }
    });
    h.simulation.run_until(SimTime::from_millis(400)).unwrap();

    let logs = h.logs.lock();
    let bound = *bound.lock();
    for r in 0..n {
        assert_eq!(logs[r].len(), 29, "replica {r} delivered {:?}", logs[r]);
        for (m, ts) in &logs[r][24..] {
            assert!(
                ts.raw() > bound,
                "replica {r}: {m:?} ordered at {ts:?}, at or below the floor {:?}",
                Timestamp::from_raw(bound)
            );
        }
    }
}

#[test]
fn single_replica_group_boots_from_an_empty_wal_above_its_floor() {
    empty_wal_boot_orders_after_the_floor(24, 1);
}

#[test]
fn whole_group_boots_from_empty_wals_above_their_floor() {
    empty_wal_boot_orders_after_the_floor(25, 3);
}

/// Every replica's deliveries, and message A.
type Outcome = (Vec<Vec<(MsgId, Timestamp)>>, MsgId);

/// One run of a five-replica group whose leader crashes on its `nth` verb:
/// replicas 3 and 4 are down from 20 µs, so message A is stored by the
/// leader and followers 1 and 2 alone. `None` unless, 200 µs after A was
/// sent, the leader has delivered A and neither follower has: its crash
/// verb came after the delivery and before the word that would let them
/// deliver it. Then 1 and 2 lose power, 3, 4 and the followers in `back`
/// come back and elect a leader, and the client retries A until each of
/// them delivers it.
fn a_leader_delivers_on_two_acks_and_crashes(nth: u64, back: &[usize]) -> Option<Outcome> {
    let h = build_durable(28, 5);
    let id = |idx: usize| h.mcast.node(GroupId(0), idx).id();
    let mut plan = FaultPlan::new(28).crash_on_verb(id(0), nth);
    for idx in [3, 4] {
        plan = plan
            .crash_at(id(idx), Duration::from_micros(20))
            .recover_at(id(idx), Duration::from_millis(1));
    }
    for idx in [1, 2] {
        plan = plan.power_loss_at(id(idx), Duration::from_micros(300));
    }
    for &idx in back {
        plan = plan.recover_at(id(idx), Duration::from_millis(1));
    }
    plan.arm(&h.simulation, &h.fabric);

    let logs = h.logs.clone();
    let up: Vec<usize> = back.iter().copied().chain([3, 4]).collect();
    let sent = Arc::new(Mutex::new(None));
    let probed = sent.clone();
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    h.simulation.spawn("client", move || {
        sim::sleep(Duration::from_micros(50));
        let a = client.multicast(&[GroupId(0)], b"A");
        sim::sleep(Duration::from_micros(200));
        let has = |idx: usize| logs.lock()[idx].iter().any(|(m, _)| *m == a);
        if !has(0) || has(1) || has(2) {
            return;
        }
        *probed.lock() = Some(a);
        while !up.iter().all(|&idx| has(idx)) {
            sim::sleep(Duration::from_millis(1));
            client.resubmit(a, &[GroupId(0)], b"A");
        }
    });
    h.simulation.run_until(SimTime::from_millis(40)).unwrap();
    let a = *sent.lock();
    a.map(|a| (h.logs.lock().clone(), a))
}

/// A follower's acknowledgement is a durable promise at five replicas:
/// the leader delivers A on the acks of followers 1 and 2 and crashes
/// before they learn A is delivered, and both lose power. A is then on
/// their disks only, and the new leader must adopt it from there: each
/// replica that is back delivers A first, at the timestamp the old leader
/// delivered it at, not re-sequenced from the client's retry. With
/// follower 2 still down, follower 1 — epoch 1's leader — holds the only
/// copy, and its own takeover must count it.
#[test]
fn a_delivered_entry_survives_power_loss_of_the_followers_that_acked_it() {
    for back in [&[1, 2][..], &[1]] {
        let (logs, a) = (1..=60)
            .find_map(|nth| a_leader_delivers_on_two_acks_and_crashes(nth, back))
            .expect("a crash verb between the leader's delivery and its commit word");
        assert_eq!(logs[0].len(), 1);
        assert_eq!(logs[0][0].0, a);
        for idx in back.iter().copied().chain([3, 4]) {
            assert_eq!(
                logs[idx].first(),
                logs[0].first(),
                "followers {back:?} back: replica {idx} delivered {:?}, the crashed leader {:?}",
                logs[idx],
                logs[0]
            );
        }
    }
}
