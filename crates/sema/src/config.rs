//! Encoding configuration: the experimental knobs of the paper
//! (unroll factor, solver budgets, pointer sizing).

/// Configuration for encoding a function pair and checking refinement.
#[derive(Clone, Copy, Debug)]
pub struct EncodeConfig {
    /// Loop unroll factor (paper §7). `1` keeps only the first iteration;
    /// the paper recommends at least 2 so φ backedge entries are covered.
    pub unroll_factor: u32,
    /// Bits used for the pointer *offset* component. The paper uses 64;
    /// smaller widths keep bit-blasting tractable while preserving the
    /// memory model's behavior for the block sizes we generate.
    pub off_bits: u32,
    /// Bits used for the block-id component (bounds the number of memory
    /// blocks a program can touch, computed statically per §4; this is the
    /// maximum we allow).
    pub bid_bits: u32,
    /// SMT solver wall-clock budget per query, in milliseconds (Fig. 8's
    /// sweep variable).
    pub solver_timeout_ms: u64,
    /// SMT solver memory budget in learned-clause literals (the paper's
    /// 1 GB RAM cap analogue).
    pub solver_memory: usize,
    /// Maximum CEGQI refinement iterations per query.
    pub max_ef_iterations: u32,
    /// Approximate cap, in megabytes, on the per-job term DAG (the paper's
    /// 1 GB-per-process analogue, enforced *before* the solver rather than
    /// by the OS). `None` means unlimited. Exceeding it yields an
    /// out-of-memory verdict at the next encoding/solving choke point.
    pub mem_budget_mb: Option<u64>,
    /// Run the term-level rewrite saturation pass before bit-blasting on
    /// each refinement obligation φ and on the one-shot queries (verify,
    /// precondition and no-universal), discharging algebraically provable
    /// queries with zero CNF. CEGQI's candidate checks are never
    /// rewritten. `false` sends every query straight to the bit-blaster;
    /// `tests/rewrite.rs` checks that verdicts are identical either way.
    pub rewrite: bool,
}

impl Default for EncodeConfig {
    fn default() -> Self {
        EncodeConfig {
            unroll_factor: 2,
            off_bits: 12,
            bid_bits: 6,
            solver_timeout_ms: 60_000,
            solver_memory: 50_000_000,
            max_ef_iterations: 32,
            mem_budget_mb: None,
            rewrite: true,
        }
    }
}

impl EncodeConfig {
    /// Total bit width of an encoded pointer (`bid ++ off`).
    pub fn ptr_bits(&self) -> u32 {
        self.bid_bits + self.off_bits
    }

    /// A configuration with a given unroll factor (Fig. 6's sweep).
    pub fn with_unroll(factor: u32) -> Self {
        EncodeConfig {
            unroll_factor: factor,
            ..Default::default()
        }
    }

    /// A configuration with a given term-DAG memory budget in megabytes.
    pub fn with_mem_budget_mb(mb: u64) -> Self {
        EncodeConfig {
            mem_budget_mb: Some(mb),
            ..Default::default()
        }
    }

    /// The memory budget in bytes, if configured.
    pub fn mem_budget_bytes(&self) -> Option<usize> {
        self.mem_budget_mb
            .map(|mb| (mb as usize).saturating_mul(1024 * 1024))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = EncodeConfig::default();
        assert!(c.unroll_factor >= 2);
        assert_eq!(c.ptr_bits(), c.bid_bits + c.off_bits);
    }

    #[test]
    fn sweep_constructors() {
        assert_eq!(EncodeConfig::with_unroll(8).unroll_factor, 8);
    }

    #[test]
    fn mem_budget_conversion() {
        assert_eq!(EncodeConfig::default().mem_budget_bytes(), None);
        let c = EncodeConfig::with_mem_budget_mb(2);
        assert_eq!(c.mem_budget_bytes(), Some(2 * 1024 * 1024));
    }
}
