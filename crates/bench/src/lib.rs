//! The measurement side of the reproduction. The scale ruler
//! (`src/bin/scale.rs`) times the database's per-epoch costs and the
//! paper's complexity claims over size sweeps and records the fitted
//! log-log slope of each; it gates nothing. End-to-end and per-layer
//! performance of the database is measured by the repository's benchmark
//! (`benchmark/`, see `BENCHMARK.json`).
//!
//! # Experiments
//!
//! Each experiment (E-id) ties a paper artifact to the test in
//! `tests/paper_reproduction.rs` that checks its claim and to the ruler row
//! that times it: a clustered column (one value per map size) or a kernel
//! family (fixed sizes of its own). Figures are fixed fixtures: their tests
//! check them, and nothing times them.
//!
//! | E-id | Paper artifact | Test | Ruler row |
//! |---|---|---|---|
//! | E01 | Fig. 1; Examples 2.1, 4.1, 4.2 | `e01_fig1_four_instances` | — |
//! | E01b | Example 4.1 as a set-returning query | `e01b_example_4_1_with_free_variable_bindings` | — |
//! | E02 | Fig. 2 | `e02_fig2_eight_relations` | — |
//! | E03 | Figs. 3 and 4 | `e03_fig4_class_invariance` | — |
//! | E04, E09 | Figs. 5 and 9; Examples 3.1, 3.3, 3.6 | `e04_fig5_invariant_of_fig1c` | — |
//! | E05 | Fig. 6 | `e05_fig6_exterior_face_is_essential` | — |
//! | E06 | Fig. 7 | `e06_fig7_orientation_is_essential` | — |
//! | E07 | Theorem 3.4 | `e07_theorem_3_4` | column `homeomorphic_ms` |
//! | E08 | Theorem 3.5 | `e08_theorem_3_5_construction` | column `cold_build_ms` |
//! | E10 | Corollary 3.7 | `e10_corollary_3_7_thematic_bridge` | column `thematic_ms` |
//! | E11 | Theorem 3.8, Lemma 3.9 | `e11_theorem_3_8_validation` | families `e11_validate_valid`, `e11_validate_corrupted` |
//! | E12, E13 | Figs. 10 and 11; Theorem 4.4, Proposition 4.5 | `e12_genericity_and_expressiveness` | — |
//! | E14 | Proposition 5.1, Theorem 5.6 | `e14_completeness_normal_form` | family `e14_sentence` |
//! | E15 | Theorem 5.8 | `e15_point_vs_region_language` | — |
//! | E16 | Theorems 6.4, 6.5 | `e16_rect_sentences_are_invariant_under_translation_and_scaling` | families `e16_rect_data`, `e16_rect_depth` |
//! | E17 | \[GPP95\]; Section 6 | `e17_topological_inference` | families `e17_satisfiable`, `e17_unsatisfiable` |
//! | E18 | Ablation of the invariant's parts (Figs. 6 and 7) | `e18_orientation_separates_the_flowers` | — |

#![forbid(unsafe_code)]
