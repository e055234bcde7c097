// Package paramdbt reproduces "More with Less — Deriving More
// Translation Rules with Less Training Data for DBTs Using
// Parameterization" (MICRO 2020): a learning-based dynamic binary
// translator whose learned rules are parameterized along the opcode and
// addressing-mode dimensions, with condition-flag delegation.
//
// The implementation lives under internal/ (docs/ARCHITECTURE.md maps
// the packages and the data flow; DESIGN.md records the system
// inventory and rationale); cmd/ holds the executables and examples/
// the runnable demos. cmd/experiments regenerates every table and
// figure of the paper's evaluation, and bench/ is the end-to-end
// performance benchmark. Runtime metrics and tracing are documented in
// docs/OBSERVABILITY.md.
package paramdbt
