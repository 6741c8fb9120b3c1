//! Shared configuration for the benchmark harness reproducing the paper's
//! figures and complexity claims. Every Criterion group uses a short,
//! deterministic configuration so `cargo bench --workspace` finishes in
//! minutes while still producing stable relative numbers. No group is
//! gated: they are plain timings of the paper's kernels. End-to-end and
//! per-layer performance of the database is measured by the repository's
//! benchmark (`benchmark/`, see `BENCHMARK.json`).
//!
//! # Experiments
//!
//! Each experiment (E-id) ties a paper artifact to the test in
//! `tests/paper_reproduction.rs` that checks its claim and to the bench
//! group (and file under `benches/`) that times it.
//!
//! | E-id | Paper artifact | Test | Bench group |
//! |---|---|---|---|
//! | E01 | Fig. 1; Examples 2.1, 4.1, 4.2 | `e01_fig1_four_instances` | `fig01_four_instances` (`figures`) |
//! | E01b | Example 4.1 as a set-returning query | `e01b_example_4_1_with_free_variable_bindings` | — |
//! | E02 | Fig. 2 | `e02_fig2_eight_relations` | `fig02_four_intersection` (`figures`) |
//! | E03 | Figs. 3 and 4 | `e03_fig4_class_invariance` | — |
//! | E04, E09 | Figs. 5 and 9; Examples 3.1, 3.3, 3.6 | `e04_fig5_invariant_of_fig1c` | `fig05_fig09_invariant_of_fig1c` (`figures`) |
//! | E05 | Fig. 6 | `e05_fig6_exterior_face_is_essential` | `fig06_exterior_face` (`figures`) |
//! | E06 | Fig. 7 | `e06_fig7_orientation_is_essential` | `fig07_orientation` (`figures`) |
//! | E07 | Theorem 3.4 | `e07_theorem_3_4` | `thm34_invariant_isomorphism` (`scaling`) |
//! | E08 | Theorem 3.5 | `e08_theorem_3_5_construction` | `thm35_invariant_construction`, `splitting_sweep_vs_naive` (`scaling`) |
//! | E10 | Corollary 3.7 | `e10_corollary_3_7_thematic_bridge` | `cor37_thematic_bridge` (`query_eval`) |
//! | E11 | Theorem 3.8, Lemma 3.9 | `e11_theorem_3_8_validation` | `thm38_validation` (`inference`) |
//! | E12, E13 | Figs. 10 and 11; Theorem 4.4, Proposition 4.5 | `e12_genericity_and_expressiveness` | — |
//! | E14 | Proposition 5.1, Theorem 5.6 | `e14_completeness_normal_form` | `thm56_class_defining_sentence` (`scaling`) |
//! | E15 | Theorem 5.8 | `e15_point_vs_region_language` | `thm58_point_vs_region` (`query_eval`) |
//! | E16 | Theorems 6.4, 6.5 | — | `thm64_rect_data_complexity`, `thm65_rect_query_complexity` (`scaling`) |
//! | E17 | \[GPP95\]; Section 6 | `e17_topological_inference` | `gpp95_topological_inference` (`inference`) |
//! | E18 | Ablation of the invariant's parts (Figs. 6 and 7) | — | `ablation_invariant_components` (`inference`) |
//!
//! `planner_bindings` (`planner`) times the query planner against the
//! naive enumerator; it reproduces no paper artifact.

#![forbid(unsafe_code)]

/// The instance sizes (number of regions) used by the scaling sweeps.
pub const SCALING_SIZES: [usize; 4] = [4, 16, 36, 64];

/// A larger sweep used by the construction benchmarks. Sized so the naive
/// `O(n^2)` splitter is still measurable at the top of the range while the
/// plane sweep's `O((n + k) log n)` advantage is unmistakable (two orders of
/// magnitude at 400 regions).
pub const CONSTRUCTION_SIZES: [usize; 6] = [4, 16, 64, 144, 256, 400];
