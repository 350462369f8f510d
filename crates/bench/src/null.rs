//! The "null requests" application of Fig. 4: requests are ordered and
//! coordinated exactly like TPC-C requests (same single-/multi-partition
//! ratio) but execute nothing — isolating the cost of Heron's coordination
//! from the cost of request execution.

use bytes::Bytes;
use heron_core::{Execution, LocalReader, ObjectId, PartitionId, Placement, ReadSet, StateMachine};

/// A state machine whose requests carry only a destination list and whose
/// execution is free.
#[derive(Debug, Clone)]
pub struct NullApp {
    partitions: u16,
}

impl NullApp {
    /// Creates the null application for `partitions` partitions.
    pub fn new(partitions: u16) -> Self {
        NullApp { partitions }
    }

    /// Encodes a null request for the given destination partitions.
    pub fn request(dests: &[PartitionId]) -> Vec<u8> {
        let mut v = vec![dests.len() as u8];
        for d in dests {
            v.extend_from_slice(&d.0.to_le_bytes());
        }
        v
    }
}

impl StateMachine for NullApp {
    fn placement(&self, oid: ObjectId) -> Placement {
        Placement::Partition(PartitionId((oid.0 % self.partitions as u64) as u16))
    }

    fn destinations(&self, req: &[u8]) -> Vec<PartitionId> {
        let n = req[0] as usize;
        (0..n)
            .map(|i| {
                PartitionId(u16::from_le_bytes(
                    req[1 + i * 2..3 + i * 2].try_into().expect("partition id"),
                ))
            })
            .collect()
    }

    fn read_set(&self, _req: &[u8]) -> Vec<ObjectId> {
        vec![]
    }

    fn conflict_keys(&self, _req: &[u8]) -> Vec<u64> {
        // Null requests read and write nothing: they commute with
        // everything, so a parallel executor pool may run them all
        // concurrently.
        vec![]
    }

    fn execute(
        &self,
        _partition: PartitionId,
        _req: &[u8],
        _reads: &ReadSet,
        _local: &dyn LocalReader,
    ) -> Execution {
        Execution {
            writes: vec![],
            response: Bytes::from_static(b"ok"),
            compute: std::time::Duration::ZERO,
        }
    }

    fn bootstrap(&self, _partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        vec![]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_destinations() {
        let app = NullApp::new(8);
        let dests = vec![PartitionId(1), PartitionId(5)];
        let req = NullApp::request(&dests);
        assert_eq!(app.destinations(&req), dests);
        assert!(app.read_set(&req).is_empty());
    }
}
