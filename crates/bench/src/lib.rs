//! Shared configuration for the benchmark harness reproducing the paper's
//! figures and complexity claims. Every Criterion group uses a short,
//! deterministic configuration so `cargo bench --workspace` finishes in
//! minutes while still producing stable relative numbers; `EXPERIMENTS.md`
//! maps each benchmark to the paper artifact it reproduces.

#![forbid(unsafe_code)]

/// The instance sizes (number of regions) used by the scaling sweeps.
pub const SCALING_SIZES: [usize; 4] = [4, 16, 36, 64];

/// A larger sweep used by the construction benchmarks. Sized so the naive
/// `O(n^2)` splitter is still measurable at the top of the range while the
/// plane sweep's `O((n + k) log n)` advantage is unmistakable (two orders of
/// magnitude at 400 regions).
pub const CONSTRUCTION_SIZES: [usize; 6] = [4, 16, 64, 144, 256, 400];
