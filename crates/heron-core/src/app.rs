//! The replicated application interface.

use crate::types::{ObjectId, PartitionId, Placement, StorageKind};
use bytes::Bytes;
use std::collections::HashMap;
use std::time::Duration;

/// The values a request read, keyed by object id.
///
/// Local reads come from the replica's own store; remote reads come from
/// one-sided RDMA reads against replicas of other partitions.
#[derive(Debug, Clone, Default)]
pub struct ReadSet {
    values: HashMap<ObjectId, Bytes>,
}

impl ReadSet {
    /// Creates an empty read set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the value read for `oid`.
    pub fn insert(&mut self, oid: ObjectId, value: Bytes) {
        self.values.insert(oid, value);
    }

    /// The value read for `oid`, if it was in the request's read set.
    pub fn get(&self, oid: ObjectId) -> Option<&Bytes> {
        self.values.get(&oid)
    }

    /// Number of objects read.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing was read.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The outcome of executing a request at one partition.
#[derive(Debug, Clone, Default)]
pub struct Execution {
    /// Objects to update. The engine writes only those local to the
    /// executing partition (each partition updates its own objects —
    /// paper §III-A Phase 3).
    pub writes: Vec<(ObjectId, Bytes)>,
    /// Response returned to the client (the client keeps the one from the
    /// lowest-numbered involved partition).
    pub response: Bytes,
    /// Modeled CPU time of the request logic itself (reading/deserializing
    /// rows, business logic), charged to the replica's virtual clock.
    pub compute: Duration,
}

/// Read access to the executing replica's own store (local and replicated
/// objects), for reads whose keys are only known during execution.
///
/// The paper's a-priori read-set requirement exists so that *remote*
/// objects can be fetched consistently; objects of the executing partition
/// are always consistent during execution (the replica runs requests
/// serially in delivery order), so they may be read at any point.
pub trait LocalReader {
    /// The current value of a local or replicated object; `None` if the
    /// object does not exist or is not local to the executing partition.
    fn read(&self, oid: ObjectId) -> Option<Bytes>;

    /// [`LocalReader::read`] of every object in `oids`, in order. Reading a
    /// transaction's rows one dependency level at a time through here lets
    /// the replica's store take them as one batch, with their cache misses
    /// overlapped; the default reads them one by one.
    fn read_many(&self, oids: &[ObjectId]) -> Vec<Option<Bytes>> {
        oids.iter().map(|&oid| self.read(oid)).collect()
    }
}

/// A deterministic, partitioned state machine replicated by Heron.
///
/// The paper's execution model (§III-A): the objects a request reads and
/// writes are estimated *before* execution; execution has a reading phase
/// followed by a writing phase; all involved partitions execute the
/// request, each updating only its own objects.
pub trait StateMachine: Send + Sync + 'static {
    /// Where an object lives.
    fn placement(&self, oid: ObjectId) -> Placement;

    /// How an object is stored (drives state-transfer cost). Defaults to
    /// serialized.
    fn storage_kind(&self, _oid: ObjectId) -> StorageKind {
        StorageKind::Serialized
    }

    /// The partitions a request must be multicast to. Used by clients.
    fn destinations(&self, request: &[u8]) -> Vec<PartitionId>;

    /// The objects the request will read (local and remote), estimated a
    /// priori as the paper assumes.
    fn read_set(&self, request: &[u8]) -> Vec<ObjectId>;

    /// The keys the request holds *exclusive* for parallel execution
    /// (P-SMR, Marandi et al.). Two delivered commands may execute
    /// concurrently on one replica unless one holds exclusive a key the
    /// other holds either way (here or in [`StateMachine::shared_keys`]);
    /// conflicting commands apply in delivery order. Keys are opaque
    /// tokens — workloads derive them from whatever statically identifies
    /// the state a command may touch (TPC-C uses district, stock-row and
    /// per-warehouse stock tokens).
    ///
    /// The default declares a single universal key, serializing every
    /// command — always safe, no parallelism. An *empty* set with no
    /// shared keys means the command conflicts with nothing (read-only
    /// against immutable state).
    fn conflict_keys(&self, request: &[u8]) -> Vec<u64> {
        let _ = request;
        vec![0]
    }

    /// The keys the request holds *shared*: two shared holders of a key run
    /// side by side, and a shared and an exclusive holder conflict. A
    /// command that writes a few rows of a table another command reads
    /// whole holds those rows exclusive and a table token shared; the
    /// reader holds the token exclusive, so it waits for every writer
    /// before it and every writer after it waits for it, without
    /// declaring each row. A key also in [`StateMachine::conflict_keys`]
    /// is held exclusive. Defaults to none.
    fn shared_keys(&self, request: &[u8]) -> Vec<u64> {
        let _ = request;
        Vec::new()
    }

    /// The read set as seen by one involved partition. Defaults to
    /// [`StateMachine::read_set`]; workloads that *partially execute*
    /// requests in some partitions (the paper's TPC-C does — §IV-A)
    /// override this so a partition only fetches what its share of the
    /// execution needs.
    fn read_set_at(&self, partition: PartitionId, request: &[u8]) -> Vec<ObjectId> {
        let _ = partition;
        self.read_set(request)
    }

    /// Executes the request against the values read (plus any local
    /// objects through `local`). Must be deterministic: every replica of
    /// every involved partition runs this with the same reads and must
    /// produce the same writes.
    fn execute(
        &self,
        partition: PartitionId,
        request: &[u8],
        reads: &ReadSet,
        local: &dyn LocalReader,
    ) -> Execution;

    /// The objects this partition hosts at time zero (including its copy of
    /// every [`Placement::Replicated`] object).
    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_set_basics() {
        let mut rs = ReadSet::new();
        assert!(rs.is_empty());
        rs.insert(ObjectId(1), Bytes::from_static(b"v"));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(ObjectId(1)).unwrap().as_ref(), b"v");
        assert!(rs.get(ObjectId(2)).is_none());
    }
}
