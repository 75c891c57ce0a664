// Package rofs is a from-scratch reproduction of Seltzer & Stonebraker,
// "Read Optimized File System Designs: A Performance Evaluation" (ICDE
// 1991): an event-driven simulator comparing multiblock disk-allocation
// policies — binary buddy, restricted buddy, and extent-based — against
// fixed-block baselines on a striped disk array.
//
// The library lives under internal/ (one package per subsystem; see
// DESIGN.md for the map) and the executables under cmd/. rofs-tables
// regenerates every table and figure of the paper, and benchsuite/ is the
// repository's benchmark.
package rofs
