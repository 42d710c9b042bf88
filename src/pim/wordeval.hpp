// Word-level evaluation of a program's twin.
//
// The gate-level MicroProgram stays the costed artifact — its cycle count is
// what the latency/energy/wear models charge, exactly as the hardware would
// run it. But simulating every MAGIC gate is a slow way to compute what a
// program *means*: an eq/lt/between over a w-bit field costs O(w) NOR cycles
// of 1024 rows each, while the same boolean function over a packed 64-row
// word is a handful of word ops. ProgramBuilder records that twin while it
// emits the gates (see pim/microcode.hpp): one WordOp per outermost
// emission, writing the same output column with the same boolean function
// of the same inputs. execute_words runs it on one crossbar. Equivalence
// against the gate interpreter is pinned per emitter by the microcode unit
// tests and end to end by the scalar-vs-vectorized determinism suite.
#pragma once

#include "pim/crossbar.hpp"
#include "pim/microcode.hpp"

namespace bbpim::pim {

/// Evaluates a WordProgram on one crossbar: each op writes its output
/// column's packed words. No wear is recorded — the caller charges the gate
/// program's cycles (see Crossbar::add_uniform_wear). A kMux compares before
/// it writes: one that changes no bit leaves shared data groups shared, so
/// an UPDATE clones only the groups of the crossbars whose bits change.
void execute_words(Crossbar& xb, const WordProgram& prog);

}  // namespace bbpim::pim
