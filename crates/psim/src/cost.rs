//! Communication cost model.
//!
//! The paper's complexity analysis charges its single collective (the
//! Allgatherv of step S3) `O(τ·log p + μ·n·T)` where `τ` is network latency
//! and `μ` the reciprocal bandwidth (sec/byte). We adopt the same
//! closed-form model for every collective, parameterized per network class.

/// LogP-style collective cost model: `time = τ·ceil(log2 p) + μ·bytes`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-message network latency `τ` in seconds.
    pub latency_s: f64,
    /// Reciprocal bandwidth `μ` in seconds per byte.
    pub sec_per_byte: f64,
}

impl CostModel {
    /// 10 Gbps Ethernet-class network — the paper's testbed interconnect.
    /// `τ = 50 µs`, effective bandwidth 1.25 GB/s.
    pub fn ethernet_10g() -> Self {
        CostModel {
            latency_s: 50e-6,
            sec_per_byte: 1.0 / 1.25e9,
        }
    }

    /// HPC-interconnect-class network (InfiniBand-like): `τ = 2 µs`, 12 GB/s.
    pub fn infiniband() -> Self {
        CostModel {
            latency_s: 2e-6,
            sec_per_byte: 1.0 / 12e9,
        }
    }

    /// A free network: collectives cost nothing (useful to isolate compute).
    pub fn zero() -> Self {
        CostModel {
            latency_s: 0.0,
            sec_per_byte: 0.0,
        }
    }

    /// Cost of a collective moving `bytes` total payload among `p` ranks.
    ///
    /// `p ≤ 1` is free: a single rank performs no communication.
    pub fn collective_cost(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let log_p = (p as f64).log2().ceil();
        self.latency_s * log_p + self.sec_per_byte * bytes as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::ethernet_10g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_is_free() {
        let m = CostModel::ethernet_10g();
        assert_eq!(m.collective_cost(1, 1_000_000), 0.0);
        assert_eq!(m.collective_cost(0, 1_000_000), 0.0);
    }

    #[test]
    fn cost_monotone_in_p_and_bytes() {
        let m = CostModel::ethernet_10g();
        assert!(m.collective_cost(4, 100) < m.collective_cost(64, 100));
        assert!(m.collective_cost(8, 100) < m.collective_cost(8, 1_000_000));
    }

    #[test]
    fn latency_term_is_logarithmic() {
        let m = CostModel {
            latency_s: 1.0,
            sec_per_byte: 0.0,
        };
        assert_eq!(m.collective_cost(2, 0), 1.0);
        assert_eq!(m.collective_cost(4, 0), 2.0);
        assert_eq!(m.collective_cost(64, 0), 6.0);
        // non-power-of-two rounds up
        assert_eq!(m.collective_cost(5, 0), 3.0);
    }

    #[test]
    fn bandwidth_term_matches_definition() {
        let m = CostModel {
            latency_s: 0.0,
            sec_per_byte: 2e-9,
        };
        let c = m.collective_cost(2, 500_000_000);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_model_free() {
        assert_eq!(CostModel::zero().collective_cost(64, 1 << 30), 0.0);
    }

    #[test]
    fn presets_ordered_sensibly() {
        let eth = CostModel::ethernet_10g();
        let ib = CostModel::infiniband();
        assert!(ib.latency_s < eth.latency_s);
        assert!(ib.sec_per_byte < eth.sec_per_byte);
    }
}
