//! Registered memory is committed where it is written, and a power loss
//! hands it back, in every fabric a process builds. Resident memory is per
//! process, so this file runs as a process of its own and its tests take
//! turns ([`one_at_a_time`]); it reads Linux's `/proc/self/statm` and,
//! through [`rdma_sim::Node::resident_pages`], `/proc/self/pagemap`.

use rdma_sim::{Fabric, LatencyModel};
use std::sync::{Mutex, MutexGuard};

/// Holds the other tests of this file off while one measures.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// This process's resident set in MiB (`statm`'s second field counts
/// 4 KiB pages on x86-64 Linux).
fn resident_mib() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("Linux /proc");
    let pages = statm.split(' ').nth(1).and_then(|f| f.parse::<u64>().ok());
    pages.expect("statm's resident field") / 256
}

#[test]
fn registered_memory_is_resident_where_written_until_power_loss() {
    let _turn = one_at_a_time();
    let simulation = sim::Simulation::new(1);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
    let qp = b.connect(&a);
    let before = resident_mib();

    // 256 MiB registered on `a`; one word written, read back, landed on.
    let word = a.alloc_bytes(256 << 20).offset(128 << 20);
    a.local_write_word(word, 1).unwrap();
    assert_eq!(a.local_read_word(word).unwrap(), 1);
    simulation.spawn("writer", move || qp.post_write_word(word, 2).unwrap());
    simulation.run().unwrap();
    assert_eq!(a.local_read_word(word).unwrap(), 2);
    let used = resident_mib();
    assert!(used < before + 8, "2 words: {before} -> {used} MiB");

    // 64 MiB registered on `b`, every byte written: resident until the
    // power loss drops it.
    let base = b.alloc_bytes(64 << 20);
    let fill = vec![0xa5; 1 << 20];
    for mib in 0..64 {
        b.local_write(base.offset(mib << 20), &fill).unwrap();
    }
    let written = resident_mib();
    assert!(written >= used + 64, "64 MiB: {used} -> {written} MiB");
    fabric.power_loss(b.id());
    let lost = resident_mib();
    assert!(lost + 60 <= written, "power loss: {written} -> {lost} MiB");
    assert_eq!(b.local_read_word(base.offset(32 << 20)).unwrap(), 0);
}

/// A fabric of one node holding `mib` MiB, every byte written.
fn written_fabric(mib: u64) -> Fabric {
    let fabric = Fabric::new(LatencyModel::connectx4());
    let node = fabric.add_node("n");
    let base = node.alloc_bytes((mib << 20) as usize);
    let fill = vec![0x5a; 1 << 20];
    for at in 0..mib {
        node.local_write(base.offset(at << 20), &fill).unwrap();
    }
    fabric
}

/// Freeing a large node buffer must not make later, smaller ones come out
/// of memory the process keeps: there, creating a buffer zero-fills (and
/// so commits) all of it, and dropping one leaves it resident.
#[test]
fn memory_follows_use_in_every_fabric_a_process_builds() {
    let _turn = one_at_a_time();
    let before = resident_mib();
    drop(written_fabric(24));
    drop(written_fabric(16));
    let fabric = Fabric::new(LatencyModel::connectx4());
    let node = fabric.add_node("fresh");
    let word = node.alloc_bytes(16 << 20).offset(8 << 20);
    node.local_write_word(word, 1).unwrap();
    assert_eq!(node.local_read_word(word).unwrap(), 1);
    let after = resident_mib();
    assert!(after < before + 8, "one word: {before} -> {after} MiB");
}

/// `resident_pages` counts the pages writes committed, page by page: not
/// a page that was only read, nothing before the buffer exists, and
/// nothing after a power loss.
#[test]
fn resident_pages_counts_the_pages_writes_committed() {
    let _turn = one_at_a_time();
    let fabric = Fabric::new(LatencyModel::connectx4());
    let node = fabric.add_node("n");
    let base = node.alloc_bytes(8 << 20);
    assert_eq!(
        node.resident_pages(base, 8 << 20).unwrap(),
        0,
        "no buffer yet"
    );
    // Three writes one page apart commit three pages however long they
    // are; a read commits none.
    for page in [0, 2, 4] {
        node.local_write(base.offset((1 << 20) + page * 4096), &[1; 100])
            .unwrap();
    }
    assert_eq!(node.local_read_word(base.offset(6 << 20)).unwrap(), 0);
    assert_eq!(node.resident_pages(base, 8 << 20).unwrap(), 3);
    // Registered memory starts on a page boundary; a range counts the
    // pages it overlaps.
    let second = base.offset((1 << 20) + 2 * 4096 + 200);
    assert_eq!(node.resident_pages(second, 8).unwrap(), 1);
    assert_eq!(node.resident_pages(base, 1 << 20).unwrap(), 0);
    assert_eq!(node.resident_pages(base, (1 << 20) + 1).unwrap(), 1);
    assert!(
        node.resident_pages(base, (8 << 20) + 8).is_err(),
        "unregistered"
    );
    fabric.power_loss(node.id());
    assert_eq!(node.resident_pages(base, 8 << 20).unwrap(), 0, "power loss");
}
