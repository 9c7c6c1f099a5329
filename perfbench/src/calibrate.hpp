// A fixed reference computation that measures how fast the host runs right
// now.
//
// On a shared host the same round of simulation takes up to twice as long
// when other tenants load the memory system, in phases of tens of seconds.
// The reference computation (balanced-tree inserts and lookups, then a sort)
// slows with them, so a host time divided by a calibration time taken in
// the same run cancels most of that drift. The computation lives in the
// benchmark, not in the program, so every change to the program shows in
// full.
#pragma once

namespace perfbench {

/// What calibration_s() takes on the reference host (README.md, Reference
/// figures) when it is quiet: host times scaled by
/// kReferenceCalibrationS / calibration_s() read as seconds on that host.
inline constexpr double kReferenceCalibrationS = 0.05;

/// Runs the reference computation once; returns its thread CPU time, s.
double calibration_s();

}  // namespace perfbench
