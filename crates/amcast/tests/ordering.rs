//! Integration tests for the atomic multicast properties of §II-B of the
//! Heron paper: integrity, agreement, prefix/acyclic order, and unique
//! monotone timestamps — plus leader failover.

use amcast::{
    leader_for_epoch, DeliveryEvent, GroupId, Mcast, McastConfig, MsgId, Timestamp, LEADER_TIMEOUT,
    ORDERING_CPU,
};
use parking_lot::Mutex;
use rdma_sim::{Fabric, LatencyModel};
use sim::Simulation;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Everything one replica delivered, in order.
type DeliveryLog = Arc<Mutex<Vec<Vec<(MsgId, Timestamp)>>>>;

struct Harness {
    simulation: Simulation,
    mcast: Mcast,
    fabric: Fabric,
    /// `logs[global_replica]` = ordered deliveries at that replica.
    logs: DeliveryLog,
    groups: usize,
    n: usize,
}

fn build(seed: u64, cfg: McastConfig) -> Harness {
    let simulation = Simulation::new(seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let groups = cfg.groups;
    let n = cfg.replicas_per_group;
    let nodes: Vec<Vec<_>> = (0..groups)
        .map(|g| {
            (0..n)
                .map(|i| fabric.add_node(format!("g{g}r{i}")))
                .collect()
        })
        .collect();
    let mcast = Mcast::build(&fabric, nodes, cfg);
    mcast.spawn_replicas(&simulation);
    let logs: DeliveryLog = Arc::new(Mutex::new(vec![Vec::new(); groups * n]));
    for g in 0..groups {
        for i in 0..n {
            let rx = mcast.deliveries(GroupId(g as u16), i);
            let logs = logs.clone();
            let slot = g * n + i;
            simulation.spawn(format!("consumer-g{g}r{i}"), move || loop {
                match rx.recv() {
                    DeliveryEvent::Deliver(d) => logs.lock()[slot].push((d.id, d.ts)),
                    DeliveryEvent::Gap { .. } => {}
                }
            });
        }
    }
    Harness {
        simulation,
        mcast,
        fabric,
        logs,
        groups,
        n,
    }
}

/// Check that two delivery sequences agree on the relative order of their
/// common messages.
fn assert_consistent(a: &[(MsgId, Timestamp)], b: &[(MsgId, Timestamp)]) {
    let pos_b: HashMap<MsgId, usize> = b.iter().enumerate().map(|(i, (m, _))| (*m, i)).collect();
    let common: Vec<_> = a.iter().filter(|(m, _)| pos_b.contains_key(m)).collect();
    for w in common.windows(2) {
        assert!(
            pos_b[&w[0].0] < pos_b[&w[1].0],
            "inconsistent relative delivery order for {:?} and {:?}",
            w[0].0,
            w[1].0
        );
    }
}

#[test]
fn single_group_delivers_everything_in_timestamp_order() {
    let h = build(11, McastConfig::new(1, 3));
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    h.simulation.spawn("client", move || {
        for i in 0..50u32 {
            client.multicast(&[GroupId(0)], &i.to_le_bytes());
            sim::sleep(Duration::from_micros(5));
        }
    });
    h.simulation
        .run_until(sim::SimTime::from_millis(20))
        .unwrap();
    let logs = h.logs.lock();
    for r in 0..3 {
        assert_eq!(logs[r].len(), 50, "replica {r} must deliver all messages");
        let ts: Vec<_> = logs[r].iter().map(|(_, t)| *t).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted, "delivery in timestamp order at replica {r}");
    }
    // All replicas deliver the identical sequence.
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
}

/// A lane scan reads each lane when it reaches it, not when the pass
/// began: while lane 1's message is being handled ([`ORDERING_CPU`]), one
/// submission lands in lane 0 — already walked past — and then one in lane
/// 2, still ahead. The pass consumes the later lane's message and leaves
/// the earlier lane's, though it landed first, to the next pass: a pass
/// that read every lane when it began would order lane 0 before lane 2.
/// Lane 1's message is final before lane 2's is taken in, so it is
/// delivered before lane 2's handling is paid for.
#[test]
fn a_scan_reads_each_lane_at_the_instant_it_reaches_it() {
    let simulation = Simulation::new(5);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cfg = McastConfig::new(1, 1);
    let handling = ORDERING_CPU;
    let mcast = Mcast::build(&fabric, vec![vec![fabric.add_node("g0r0")]], cfg);
    mcast.spawn_replicas(&simulation);
    // (lane, start): lane 1 goes first; 2 µs apart, all inside its handling.
    assert!(handling > Duration::from_micros(5));
    let starts = [(0u8, 2u64), (1, 0), (2, 4)];
    for (lane, start_us) in starts {
        // Attached in lane order: the n-th client owns lane n.
        let mut client = mcast.client(&fabric.add_node(format!("client{lane}")));
        assert_eq!(client.client_idx(), usize::from(lane));
        simulation.spawn(format!("client{lane}"), move || {
            sim::sleep(Duration::from_micros(start_us));
            client.multicast(&[GroupId(0)], &[lane]);
        });
    }
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let (log, rx) = (delivered.clone(), mcast.deliveries(GroupId(0), 0));
    simulation.spawn("consumer", move || loop {
        if let DeliveryEvent::Deliver(d) = rx.recv() {
            log.lock().push((d.payload[0], sim::now()));
        }
    });
    simulation.run_until(sim::SimTime::from_millis(1)).unwrap();
    let delivered = delivered.lock();
    let lanes: Vec<u8> = delivered.iter().map(|(lane, _)| *lane).collect();
    assert_eq!(lanes, [1, 2, 0]);
    let at = |i: usize| delivered[i].1;
    assert_eq!(
        at(1),
        at(0) + handling,
        "lane 1 shipped before lane 2's handling"
    );
    assert_eq!(at(2), at(1) + handling, "lane 0 by the next pass");
}

#[test]
fn timestamps_are_unique_and_carried_consistently() {
    let h = build(12, McastConfig::new(2, 3));
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    h.simulation.spawn("client", move || {
        for i in 0..30u32 {
            let dests = match i % 3 {
                0 => vec![GroupId(0)],
                1 => vec![GroupId(1)],
                _ => vec![GroupId(0), GroupId(1)],
            };
            client.multicast(&dests, &i.to_le_bytes());
            sim::sleep(Duration::from_micros(8));
        }
    });
    h.simulation
        .run_until(sim::SimTime::from_millis(30))
        .unwrap();
    let logs = h.logs.lock();
    // Uniqueness across the whole system, and per-message agreement on ts.
    let mut ts_of: HashMap<MsgId, Timestamp> = HashMap::new();
    let mut all_ts: HashSet<(MsgId, Timestamp)> = HashSet::new();
    for log in logs.iter() {
        for &(m, t) in log {
            if let Some(prev) = ts_of.insert(m, t) {
                assert_eq!(prev, t, "message {m:?} delivered with two timestamps");
            }
            all_ts.insert((m, t));
        }
    }
    let distinct: HashSet<Timestamp> = all_ts.iter().map(|(_, t)| *t).collect();
    assert_eq!(distinct.len(), ts_of.len(), "timestamps must be unique");
}

#[test]
fn cross_group_order_is_acyclic_and_prefix_consistent() {
    let h = build(13, McastConfig::new(3, 3));
    // Three clients hammer overlapping destination sets concurrently.
    for c in 0..3 {
        let mut client = h.mcast.client(&h.fabric.add_node(format!("client{c}")));
        h.simulation.spawn(format!("client{c}"), move || {
            for i in 0..25u32 {
                let dests = match (c + i as usize) % 4 {
                    0 => vec![GroupId(0), GroupId(1)],
                    1 => vec![GroupId(1), GroupId(2)],
                    2 => vec![GroupId(0), GroupId(2)],
                    _ => vec![GroupId(0), GroupId(1), GroupId(2)],
                };
                client.multicast(&dests, &i.to_le_bytes());
                sim::sleep(Duration::from_micros(11));
            }
        });
    }
    h.simulation
        .run_until(sim::SimTime::from_millis(50))
        .unwrap();
    let logs = h.logs.lock();
    // Every pair of replica logs (same or different groups) must agree on
    // the relative order of common messages — the uniform prefix/acyclic
    // order property.
    for a in 0..h.groups * h.n {
        for b in (a + 1)..h.groups * h.n {
            assert_consistent(&logs[a], &logs[b]);
        }
    }
    // And deliveries respect timestamps everywhere.
    for log in logs.iter() {
        let ts: Vec<_> = log.iter().map(|(_, t)| *t).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }
}

#[test]
fn five_replica_groups_work() {
    let h = build(14, McastConfig::new(2, 5));
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    h.simulation.spawn("client", move || {
        for i in 0..20u32 {
            client.multicast(&[GroupId(0), GroupId(1)], &i.to_le_bytes());
            sim::sleep(Duration::from_micros(10));
        }
    });
    h.simulation
        .run_until(sim::SimTime::from_millis(30))
        .unwrap();
    let logs = h.logs.lock();
    for (r, log) in logs.iter().enumerate() {
        assert_eq!(log.len(), 20, "replica {r} delivered {}", log.len());
    }
}

#[test]
fn deliveries_continue_after_leader_crash_with_client_retry() {
    let h = build(15, McastConfig::new(1, 3));
    let fabric = h.fabric.clone();
    let leader_node = h.mcast.node(GroupId(0), 0).id();
    let logs = h.logs.clone();
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    h.simulation.spawn("client", move || {
        // Phase 1: normal traffic through the initial leader.
        let mut sent: Vec<(MsgId, u32)> = Vec::new();
        for i in 0..10u32 {
            sent.push((client.multicast(&[GroupId(0)], &i.to_le_bytes()), i));
            sim::sleep(Duration::from_micros(20));
        }
        // Crash the leader.
        fabric.crash(leader_node);
        // Phase 2: keep multicasting with retry until delivered by some
        // surviving replica (replica 1 or 2 of group 0).
        for i in 10..20u32 {
            let uid = client.multicast(&[GroupId(0)], &i.to_le_bytes());
            loop {
                sim::sleep(Duration::from_millis(1));
                let delivered = logs.lock()[1].iter().any(|(m, _)| *m == uid);
                if delivered {
                    break;
                }
                client.resubmit(uid, &[GroupId(0)], &i.to_le_bytes());
            }
        }
    });
    h.simulation
        .run_until(sim::SimTime::from_millis(400))
        .unwrap();
    let logs = h.logs.lock();
    // Survivors delivered all 20 messages exactly once, consistently.
    for r in [1usize, 2] {
        assert_eq!(logs[r].len(), 20, "replica {r}: {:?}", logs[r]);
        let uids: HashSet<MsgId> = logs[r].iter().map(|(m, _)| *m).collect();
        assert_eq!(uids.len(), 20, "duplicate deliveries at replica {r}");
    }
    assert_eq!(logs[1], logs[2]);
}

/// Which of group 0's replicas hold `seq 0` in their log ring: its slot
/// leads with the stamp `seq + 1`.
fn holders_of_the_first_entry(mcast: &Mcast, n: usize) -> Vec<usize> {
    (0..n)
        .filter(|&idx| {
            let regions = mcast.regions(GroupId(0), idx);
            let (_, log, _) = regions.iter().find(|(name, ..)| *name == "log").unwrap();
            mcast.node(GroupId(0), idx).local_read_word(*log) == Ok(1)
        })
        .collect()
}

/// Every replica's deliveries, then messages A and B.
type Outcome = (Vec<Vec<(MsgId, Timestamp)>>, [MsgId; 2]);

/// One run of a five-replica group whose leader crashes on its `nth` verb.
/// `None` unless, 50 µs after message A was sent, replica 1 is the only
/// follower that stores it: the leader's log posts stopped after the
/// first follower. Then replica 1 crashes too, a new message B is sent
/// and delivered by the three survivors' new leader, the client retries
/// A, and replica 1 comes back.
fn a_follower_alone_with_the_leader(nth: u64) -> Option<Outcome> {
    let h = build(31, McastConfig::new(1, 5));
    let (leader, lone) = (
        h.mcast.node(GroupId(0), 0).id(),
        h.mcast.node(GroupId(0), 1).id(),
    );
    rdma_sim::FaultPlan::new(31)
        .crash_on_verb(leader, nth)
        .crash_at(lone, Duration::from_micros(100))
        .recover_at(lone, Duration::from_millis(12))
        .arm(&h.simulation, &h.fabric);
    let (mcast, logs) = (h.mcast.clone(), h.logs.clone());
    let probed = Arc::new(Mutex::new(None));
    let alone = probed.clone();
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    h.simulation.spawn("client", move || {
        let group = [GroupId(0)];
        let a = client.multicast(&group, b"A");
        sim::sleep(Duration::from_micros(50));
        if holders_of_the_first_entry(&mcast, 5) != [0, 1] {
            return;
        }
        sim::sleep(Duration::from_micros(100));
        let has = |idx: usize, uid: MsgId| logs.lock()[idx].iter().any(|(m, _)| *m == uid);
        let b = client.multicast(&group, b"B");
        *alone.lock() = Some([a, b]);
        for (uid, payload) in [(b, b"B"), (a, b"A")] {
            while !has(2, uid) {
                client.resubmit(uid, &group, payload);
                sim::sleep(Duration::from_millis(1));
            }
        }
    });
    h.simulation
        .run_until(sim::SimTime::from_millis(40))
        .unwrap();
    let logs = h.logs.lock().clone();
    let sent = *probed.lock();
    sent.map(|sent| (logs, sent))
}

/// Uniform prefix order at five replicas. A follower that stores an entry
/// only it and the leader hold — 2 of the 3 a majority needs — must not
/// deliver it: when both crash, the other three elect a leader that
/// orders B into that slot and A after it, and the follower, back, would
/// have delivered A before B. The leader's crash verb is scanned for the
/// one that stops its log posts after the first follower.
#[test]
fn a_follower_delivers_only_what_a_majority_stores() {
    let (logs, [a, b]) = (1..=40)
        .find_map(a_follower_alone_with_the_leader)
        .expect("a crash verb that leaves the entry with one follower");
    let uids = |idx: usize| logs[idx].iter().map(|(m, _)| *m).collect::<Vec<_>>();
    assert_eq!(uids(2), [b, a], "the survivors order B before A");
    for idx in 1..5 {
        assert_consistent(&logs[idx], &logs[2]);
    }
    assert_eq!(
        uids(1),
        [b, a],
        "the follower that came back delivers as the survivors did"
    );
}

/// A retry follows the epoch: after group 0's leader crashes and a
/// follower takes over, `resubmit` reads which epoch the group is in and
/// sends to `leader_for_epoch(epoch)`, which sequences the message; group 1
/// answered all along and keeps its leader. With all of group 1 down, no
/// read answers, and its believed leader stays where it was.
#[test]
fn resubmission_follows_the_epoch() {
    let h = build(18, McastConfig::new(2, 3));
    let (fabric, mcast, logs, n) = (h.fabric.clone(), h.mcast.clone(), h.logs.clone(), h.n);
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    let seen = Arc::new(Mutex::new(None));
    let out = seen.clone();
    h.simulation.spawn("client", move || {
        let both = [GroupId(0), GroupId(1)];
        let delivered =
            |uid: MsgId, global: usize| logs.lock()[global].iter().any(|(m, _)| *m == uid);
        let leaders = |client: &amcast::McastClient| both.map(|g| client.believed_leader(g));
        fabric.crash(mcast.node(GroupId(0), 0).id());
        // Lost: the believed leader of group 0 is down.
        let uid = client.multicast(&both, b"x");
        sim::sleep(4 * LEADER_TIMEOUT);
        let epoch = mcast.current_epoch(GroupId(0), 2);
        let before = (leaders(&client), delivered(uid, 1));
        client.resubmit(uid, &both, b"x");
        sim::sleep(Duration::from_millis(1));
        let after = (leaders(&client), delivered(uid, 1) && delivered(uid, n));
        for i in 0..n {
            fabric.crash(mcast.node(GroupId(1), i).id());
        }
        client.resubmit(uid, &both, b"x");
        *out.lock() = Some((epoch, before, after, leaders(&client)));
    });
    h.simulation
        .run_until(sim::SimTime::from_millis(20))
        .unwrap();
    let (epoch, before, after, all_down) = seen.lock().expect("the client ran");
    assert!(epoch > 0, "no takeover in group 0");
    assert_eq!(
        before,
        ([0, 0], false),
        "the first send went to the crashed leader"
    );
    assert_eq!(after, ([leader_for_epoch(epoch, n), 0], true));
    assert_eq!(
        all_down, after.0,
        "a group that is all down moved its leader"
    );
}

/// Spawns the plan's single client: it multicasts to destination sets
/// chosen by `pattern % 3` with the given inter-send gaps.
fn spawn_plan_client(h: &Harness, plan: &[(u8, u32)]) {
    let mut client = h.mcast.client(&h.fabric.add_node("client"));
    let plan = plan.to_vec();
    h.simulation.spawn("client", move || {
        for (i, (pattern, gap_us)) in plan.into_iter().enumerate() {
            let dests = match pattern % 3 {
                0 => vec![GroupId(0)],
                1 => vec![GroupId(1)],
                _ => vec![GroupId(0), GroupId(1)],
            };
            client.multicast(&dests, &(i as u32).to_le_bytes());
            sim::sleep(Duration::from_micros(u64::from(gap_us)));
        }
    });
}

/// Runs one workload plan under the given group-commit cap and returns the
/// per-replica delivery logs.
fn run_batching_scenario(
    seed: u64,
    max_batch: usize,
    plan: &[(u8, u32)],
) -> Vec<Vec<(MsgId, Timestamp)>> {
    let h = build(seed, McastConfig::new(2, 3).with_max_batch(max_batch));
    spawn_plan_client(&h, plan);
    h.simulation
        .run_until(sim::SimTime::from_millis(60))
        .unwrap();
    let logs = h.logs.lock().clone();
    logs
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(5))]

    /// Group commit is a pure performance optimisation: for any workload,
    /// every `max_batch` setting yields the same per-replica delivery
    /// order as the unbatched protocol, and every run independently keeps
    /// the §II-B properties (uniform prefix/acyclic order, unique
    /// monotone timestamps).
    #[test]
    fn group_commit_preserves_delivery_order(
        seed in 100u64..200,
        plan in proptest::prop::collection::vec((0u8..3, 3u32..=15), 8..=24),
    ) {
        let baseline = run_batching_scenario(seed, 1, &plan);
        // The unbatched run must itself be complete: each group's replicas
        // deliver exactly the messages addressed to that group.
        for g in 0..2u8 {
            let expect = plan
                .iter()
                .filter(|(p, _)| p % 3 == 2 || p % 3 == g)
                .count();
            for r in 0..3 {
                proptest::prop_assert_eq!(baseline[g as usize * 3 + r].len(), expect);
            }
        }
        for mb in [2usize, 8, 64] {
            let logs = run_batching_scenario(seed, mb, &plan);
            // Identical delivery order, replica by replica.
            for (r, (batched, unbatched)) in logs.iter().zip(baseline.iter()).enumerate() {
                let ids_b: Vec<MsgId> = batched.iter().map(|(m, _)| *m).collect();
                let ids_u: Vec<MsgId> = unbatched.iter().map(|(m, _)| *m).collect();
                proptest::prop_assert_eq!(
                    &ids_b, &ids_u,
                    "replica {} order diverged at max_batch={}", r, mb
                );
            }
            // Uniform prefix/acyclic order across all replica pairs.
            for a in 0..logs.len() {
                for b in (a + 1)..logs.len() {
                    assert_consistent(&logs[a], &logs[b]);
                }
            }
            // Unique monotone timestamps within the batched run.
            let mut ts_of: HashMap<MsgId, Timestamp> = HashMap::new();
            for log in logs.iter() {
                let ts: Vec<_> = log.iter().map(|(_, t)| *t).collect();
                let mut sorted = ts.clone();
                sorted.sort();
                proptest::prop_assert_eq!(&ts, &sorted, "non-monotone delivery at max_batch={}", mb);
                for &(m, t) in log {
                    if let Some(prev) = ts_of.insert(m, t) {
                        proptest::prop_assert_eq!(prev, t);
                    }
                }
            }
            let distinct: HashSet<Timestamp> = ts_of.values().copied().collect();
            proptest::prop_assert_eq!(distinct.len(), ts_of.len(), "duplicate timestamps at max_batch={}", mb);
        }
    }
}

/// Runs one workload under a declarative [`rdma_sim::FaultPlan`]: jitter on
/// one replica and a fail-stop crash (with later recovery) of a follower in
/// the other group. Returns the per-replica delivery logs plus the global
/// index of the crashed replica.
fn run_faulted_scenario(
    seed: u64,
    max_batch: usize,
    plan: &[(u8, u32)],
) -> (Vec<Vec<(MsgId, Timestamp)>>, usize) {
    let h = build(seed, McastConfig::new(2, 3).with_max_batch(max_batch));
    // Derive the fault targets from the seed: jitter hits one replica of
    // one group, the crash a *follower* (the initial leader is replica 0;
    // leader fail-over is exercised by its own test above) of the other.
    let jitter_group = (seed % 2) as u16;
    let crash_group = 1 - jitter_group;
    let jitter_replica = (seed / 2 % 3) as usize;
    let crash_replica = 1 + (seed / 7 % 2) as usize;
    let crash_at = Duration::from_micros(40 + seed % 120);
    let recover_at = crash_at + Duration::from_micros(800 + seed % 1200);
    let crashed_global = crash_group as usize * h.n + crash_replica;
    rdma_sim::FaultPlan::new(seed)
        .jitter(
            h.mcast.node(GroupId(jitter_group), jitter_replica).id(),
            Duration::from_micros(1 + seed % 20),
        )
        .crash_at(
            h.mcast.node(GroupId(crash_group), crash_replica).id(),
            crash_at,
        )
        .recover_at(
            h.mcast.node(GroupId(crash_group), crash_replica).id(),
            recover_at,
        )
        .arm(&h.simulation, &h.fabric);
    spawn_plan_client(&h, plan);
    h.simulation
        .run_until(sim::SimTime::from_millis(100))
        .unwrap();
    let logs = h.logs.lock().clone();
    (logs, crashed_global)
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(4))]

    /// §II-B properties survive the §IV fault model: under per-verb jitter
    /// on one replica and a fail-stop crash + recovery of a follower, every
    /// replica that stayed up delivers the full message set of its group in
    /// a single system-wide consistent order with unique timestamps — and
    /// the recovered replica's (possibly partial) log embeds in that same
    /// order. Holds identically without and with group commit.
    #[test]
    fn order_and_timestamps_survive_jitter_and_crash(
        seed in 300u64..400,
        plan in proptest::prop::collection::vec((0u8..3, 3u32..=15), 8..=20),
    ) {
        for mb in [1usize, 8] {
            let (logs, crashed) = run_faulted_scenario(seed, mb, &plan);
            // Completeness at the replicas that never crashed.
            for g in 0..2u8 {
                let expect = plan
                    .iter()
                    .filter(|(p, _)| p % 3 == 2 || p % 3 == g)
                    .count();
                for r in 0..3 {
                    let slot = g as usize * 3 + r;
                    if slot == crashed {
                        proptest::prop_assert!(
                            logs[slot].len() <= expect,
                            "crashed replica over-delivered at max_batch={}", mb
                        );
                        continue;
                    }
                    proptest::prop_assert_eq!(
                        logs[slot].len(), expect,
                        "replica g{}r{} delivered {}/{} at max_batch={}",
                        g, r, logs[slot].len(), expect, mb
                    );
                }
            }
            // Uniform prefix/acyclic order across every replica pair,
            // including the crashed-and-recovered one.
            for a in 0..logs.len() {
                for b in (a + 1)..logs.len() {
                    assert_consistent(&logs[a], &logs[b]);
                }
            }
            // No duplicate deliveries anywhere, timestamp-ordered logs,
            // per-message timestamp agreement, global uniqueness.
            let mut ts_of: HashMap<MsgId, Timestamp> = HashMap::new();
            for log in logs.iter() {
                let uids: HashSet<MsgId> = log.iter().map(|(m, _)| *m).collect();
                proptest::prop_assert_eq!(uids.len(), log.len(), "duplicate delivery at max_batch={}", mb);
                let ts: Vec<_> = log.iter().map(|(_, t)| *t).collect();
                let mut sorted = ts.clone();
                sorted.sort();
                proptest::prop_assert_eq!(&ts, &sorted, "non-monotone delivery at max_batch={}", mb);
                for &(m, t) in log {
                    if let Some(prev) = ts_of.insert(m, t) {
                        proptest::prop_assert_eq!(prev, t, "message delivered with two timestamps");
                    }
                }
            }
            let distinct: HashSet<Timestamp> = ts_of.values().copied().collect();
            proptest::prop_assert_eq!(distinct.len(), ts_of.len(), "duplicate timestamps at max_batch={}", mb);
        }
    }
}

/// Batching is a size: one fixed plan on 2 × 3 replicas, pinned at
/// `max_batch` 1 and 8 to the `(schedule_hash, events_executed,
/// posted_writes, doorbells)` the code produced before the unbatched
/// sequencing loop, log append and retransmission arm were folded into
/// the batched ones (EXPERIMENTS.md, "Batching is a size"), re-pinned
/// once when a one-group message stopped posting a proposal and a final,
/// and the leader started shipping what is final before each window
/// (EXPERIMENTS.md, "The leader ships before it takes in"). Sends 1 µs
/// apart outrun the leader's [`ORDERING_CPU`], so rounds hold more than
/// one message at 8, and follower g1r2 is down from 30 µs to 900 µs, so
/// group 1's leader retransmits what it missed — one entry per doorbell
/// at 1, one doorbell per round at 8.
#[test]
fn a_fixed_plan_is_pinned_at_batch_sizes_one_and_eight() {
    let plan: Vec<(u8, u32)> = (0..24u8).map(|i| (i, 1)).collect();
    let pins = [
        (1, ("0x3f13575a9dc71553", 2298, 694, 694)),
        (8, ("0x938a680b93692788", 2384, 721, 681)),
    ];
    for (max_batch, pin) in pins {
        let h = build(77, McastConfig::new(2, 3).with_max_batch(max_batch));
        let down = h.mcast.node(GroupId(1), 2).id();
        rdma_sim::FaultPlan::new(77)
            .crash_at(down, Duration::from_micros(30))
            .recover_at(down, Duration::from_micros(900))
            .arm(&h.simulation, &h.fabric);
        spawn_plan_client(&h, &plan);
        h.simulation
            .run_until(sim::SimTime::from_millis(20))
            .unwrap();
        // Retransmission ran: the follower that was down holds all 16.
        for (r, log) in h.logs.lock().iter().enumerate() {
            assert_eq!(log.len(), 16, "replica {r} at max_batch={max_batch}");
        }
        let count = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        let stats = h.fabric.stats();
        assert_eq!(
            (
                format!("{:#018x}", h.simulation.schedule_hash()).as_str(),
                h.simulation.events_executed(),
                count(&stats.posted_writes),
                count(&stats.doorbells),
            ),
            pin,
            "max_batch={max_batch}: (schedule_hash, events, posted_writes, doorbells) left the pin"
        );
    }
}

#[test]
fn concurrent_clients_to_disjoint_groups_scale_independently() {
    let h = build(16, McastConfig::new(2, 3));
    for (c, g) in [(0usize, 0u16), (1, 1)] {
        let mut client = h.mcast.client(&h.fabric.add_node(format!("client{c}")));
        h.simulation.spawn(format!("client{c}"), move || {
            for i in 0..40u32 {
                client.multicast(&[GroupId(g)], &i.to_le_bytes());
                sim::sleep(Duration::from_micros(4));
            }
        });
    }
    h.simulation
        .run_until(sim::SimTime::from_millis(20))
        .unwrap();
    let logs = h.logs.lock();
    for g in 0..2 {
        for i in 0..3 {
            assert_eq!(logs[g * 3 + i].len(), 40);
        }
    }
}
