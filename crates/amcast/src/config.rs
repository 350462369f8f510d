//! Multicast configuration.

/// Configuration for an atomic multicast deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McastConfig {
    /// Number of groups (= Heron partitions). Must be ≤ 64.
    pub groups: usize,
    /// Replicas per group, `n = 2f + 1`. Must be odd and ≥ 1.
    pub replicas_per_group: usize,
    /// Maximum number of client processes that may attach.
    pub max_clients: usize,
    /// Maximum message payload in bytes.
    pub max_payload: usize,
    /// Submission-ring slots per client per replica node.
    pub sub_slots: usize,
    /// Control-ring slots per writer node per replica node.
    pub ctrl_slots: usize,
    /// Replicated-log slots per group.
    pub log_slots: usize,
    /// Group-commit size, at least 1: the leader sequences finalizable
    /// messages in rounds of up to this many, and a round's finals and log
    /// entries share one doorbell per destination replica and one
    /// majority-ack round. It is a size, not a mode — one code path at
    /// every value; at `1` (the default, the paper's design) every write
    /// rings its own doorbell.
    pub max_batch: usize,
}

impl McastConfig {
    /// A configuration with `groups` groups of `replicas_per_group`
    /// replicas and default sizes.
    pub fn new(groups: usize, replicas_per_group: usize) -> Self {
        assert!((1..=64).contains(&groups), "1..=64 groups supported");
        assert!(
            replicas_per_group >= 1 && replicas_per_group % 2 == 1,
            "replicas per group must be odd (n = 2f + 1)"
        );
        McastConfig {
            groups,
            replicas_per_group,
            max_clients: 64,
            max_payload: 512,
            sub_slots: 16,
            ctrl_slots: 1024,
            log_slots: 16 * 1024,
            max_batch: 1,
        }
    }

    /// Sets the maximum number of attachable clients.
    #[must_use]
    pub fn with_max_clients(mut self, n: usize) -> Self {
        self.max_clients = n;
        self
    }

    /// Sets the group-commit size (see [`Self::max_batch`]).
    #[must_use]
    pub fn with_max_batch(mut self, n: usize) -> Self {
        assert!(n >= 1, "max_batch must be at least 1");
        self.max_batch = n;
        self
    }

    /// Number of faulty replicas tolerated per group.
    pub fn f(&self) -> usize {
        (self.replicas_per_group - 1) / 2
    }

    /// Majority size per group (`f + 1` out of `2f + 1`).
    pub fn majority(&self) -> usize {
        self.replicas_per_group / 2 + 1
    }

    /// Total replica nodes across all groups.
    pub fn total_replicas(&self) -> usize {
        self.groups * self.replicas_per_group
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_math() {
        let c = McastConfig::new(4, 3);
        assert_eq!(c.f(), 1);
        assert_eq!(c.majority(), 2);
        assert_eq!(c.total_replicas(), 12);
        let c5 = McastConfig::new(2, 5);
        assert_eq!(c5.f(), 2);
        assert_eq!(c5.majority(), 3);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_group_size_rejected() {
        McastConfig::new(2, 4);
    }

    #[test]
    fn builder_setters() {
        let c = McastConfig::new(1, 3)
            .with_max_clients(128)
            .with_max_batch(8);
        assert_eq!(c.max_clients, 128);
        assert_eq!(c.max_batch, 8);
        assert_eq!(
            McastConfig::new(1, 3).max_batch,
            1,
            "one write per doorbell by default"
        );
    }
}
