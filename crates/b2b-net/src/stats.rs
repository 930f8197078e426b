//! Traffic statistics collected by the network drivers.
//!
//! Experiment E1 (message complexity vs group size) and E6 (liveness under
//! faults) read these counters.

/// Counters of datagram fates inside a network driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the network by nodes.
    pub sent: u64,
    /// Datagrams delivered to a node's `on_message`.
    pub delivered: u64,
    /// Datagrams removed by the fault plan or the intruder.
    pub dropped: u64,
    /// Extra copies delivered due to duplication faults.
    pub duplicated: u64,
    /// Datagrams discarded because the destination was crashed or
    /// partitioned away at delivery time.
    pub undeliverable: u64,
    /// Datagrams discarded specifically by an active partition — a subset
    /// of `undeliverable`, counted separately so a checker run's fault
    /// budget is auditable (per-link breakdowns live in the telemetry
    /// registry under `partition_drops:<from>-><to>`).
    pub partition_drops: u64,
    /// Datagrams the installed intruder acted upon (dropped, replaced,
    /// delayed or used as an injection trigger); `Deliver` decisions are
    /// not counted. Per-link breakdowns live in the telemetry registry
    /// under `intruder_actions:<from>-><to>`.
    pub intruder_actions: u64,
    /// Total payload bytes handed to the network by nodes.
    pub bytes_sent: u64,
    /// Frames retransmitted by the nodes' reliable layers (harvested from
    /// each node's [`crate::ReliableMux`]; zero for transports without one).
    pub retransmits: u64,
    /// Duplicate frames suppressed by the nodes' reliable layers before
    /// delivery to the protocol (harvested likewise).
    pub dedup_drops: u64,
    /// Connections established to peers (TCP transport; zero elsewhere).
    pub connects: u64,
    /// Connections re-established after a loss — a subset of `connects`
    /// (TCP transport; zero elsewhere).
    pub reconnects: u64,
    /// Recoverable I/O failures on the transport's connect/write path:
    /// failed connect attempts, established streams dying mid-write,
    /// reader-thread spawn failures. Each armed a backoff or dropped a
    /// connection instead of panicking; retransmission masks the loss, so
    /// these do not add to [`NetStats::lost`] beyond the frames already
    /// counted in `dropped`.
    pub io_errors: u64,
}

impl NetStats {
    /// Returns a zeroed counter set.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Total datagrams that failed to reach a live destination.
    ///
    /// Deliberately unchanged by the reliable-layer counters: retransmits
    /// and dedup drops describe *masking* work, not loss.
    pub fn lost(&self) -> u64 {
        self.dropped + self.undeliverable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_sums_failures() {
        let s = NetStats {
            sent: 10,
            delivered: 6,
            dropped: 3,
            duplicated: 0,
            undeliverable: 1,
            partition_drops: 1,
            intruder_actions: 0,
            bytes_sent: 100,
            retransmits: 2,
            dedup_drops: 1,
            connects: 2,
            reconnects: 1,
            io_errors: 1,
        };
        assert_eq!(s.lost(), 4);
    }

    #[test]
    fn partition_and_intruder_counters_do_not_inflate_loss() {
        // `partition_drops` is a breakdown of `undeliverable`, and
        // `intruder_actions` counts decisions, not datagrams: neither adds
        // to `lost()` on its own.
        let s = NetStats {
            partition_drops: 4,
            intruder_actions: 9,
            ..NetStats::default()
        };
        assert_eq!(s.lost(), 0);
    }

    #[test]
    fn reliable_layer_counters_do_not_count_as_loss() {
        let s = NetStats {
            retransmits: 7,
            dedup_drops: 5,
            ..NetStats::default()
        };
        assert_eq!(s.lost(), 0);
    }

    #[test]
    fn io_errors_do_not_inflate_loss() {
        // Every I/O error that actually lost a frame already bumped
        // `dropped`; the error counter is diagnostic, not additive.
        let s = NetStats {
            io_errors: 6,
            ..NetStats::default()
        };
        assert_eq!(s.lost(), 0);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NetStats::new(), NetStats::default());
        assert_eq!(NetStats::new().lost(), 0);
    }
}
