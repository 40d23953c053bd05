// Package leakbound is a from-scratch Go reproduction of "On the Limits of
// Leakage Power Reduction in Caches" (Meng, Sherwood, Kastner — HPCA 2005).
//
// The paper asks how much cache leakage power existing circuit techniques —
// gated-Vdd "sleep" and low-voltage "drowsy" modes — could possibly save if
// management policy were perfect, and answers it with an oracle study: with
// the future address trace known, every access interval gets the cheapest
// operating mode, and the inflection points between modes follow from a
// small set of circuit parameters.
//
// The library layout (all under internal/, wired together by the cmd/
// binaries and examples/):
//
//   - sim/trace, sim/cache, sim/cpu — the timed simulation substrate: a
//     4-wide Alpha-21264-like core over 64KB L1s and a 2MB L2;
//   - workload — deterministic synthetic stand-ins for the six SPEC2000
//     benchmarks the paper uses;
//   - power — per-technology leakage/energy parameters, Equations 1–3, and
//     the Table 1 calibration;
//   - interval — per-frame access interval extraction (Section 3.1);
//   - leakage — the paper's contribution: oracle policies, the optimality
//     theorem, and the generalized model of Figure 6;
//   - prefetch — next-line and stride prefetchability (Section 5);
//   - experiments — one runner per table and figure of the evaluation.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package leakbound
