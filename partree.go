// Package partree is a from-scratch Go reproduction of Shan & Singh,
// "Parallel Tree Building on a Range of Shared Address Space
// Multiprocessors: Algorithms and Application Performance" (IPPS 1998).
//
// The repository contains:
//
//   - internal/core: the paper's five parallel Barnes-Hut tree-building
//     algorithms (ORIG, LOCAL, UPDATE, PARTREE, SPACE) as native
//     concurrent Go;
//   - internal/octree, internal/phys, internal/force, internal/partition,
//     internal/nbody: the full N-body application around them;
//   - internal/memsim: a deterministic simulator of the paper's four 1998
//     shared-address-space machines (snoopy bus, CC-NUMA directory,
//     page-based HLRC SVM, fine-grain software SC);
//   - internal/simalg + internal/harness: the five algorithms re-expressed
//     over the simulator, and every table/figure of the paper's evaluation
//     as a regenerable experiment.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// modelling decisions, and EXPERIMENTS.md for paper-versus-measured
// results. The benchmarks in bench_test.go regenerate each experiment at
// reduced scale; `partree paperrepro` (cmd/partree) runs them at full scale.
package partree
