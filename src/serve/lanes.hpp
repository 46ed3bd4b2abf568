// Lane batching: B tenants' data through one graph instance per firing.
//
// The compiled graph of a Val program is identical for every tenant; only
// the data differs.  Instead of running B copies of the engine — paying the
// per-firing scheduling cost (ready queue, enabling test, acknowledge
// mechanics) B times — the server widens each packet payload to a B-lane
// Value pack (support/value.hpp) and runs the engine ONCE: every firing
// carries all B tenants' operands, and the per-firing overhead is amortized
// B ways.  This is the §6 pipelining argument turned sideways: the paper
// streams one user's array elements through the graph back to back; the
// server additionally stacks B users *within* each element.
//
// Soundness: scalar ops broadcast lane-wise with scalar (control) operands
// replicated, so lane l of every pack is bit-identical to the value tenant
// l's solo run computes.  Control must be lane-uniform — gates and merge
// selectors driven by the compile-time control sequences (BoolSeq/IndexSeq)
// are scalar and always uniform.  Data-dependent control could diverge
// across tenants, so the server never batches such a program
// (serve::inputSteersControl); should a divergent pack reach a boolean
// context anyway, Value::asBoolean throws ValueError and the batch is rerun
// solo.
#pragma once

#include <cstddef>
#include <vector>

#include "run/io.hpp"

namespace valpipe::serve {

/// Element-wise packs `laneInputs` (one StreamMap per tenant, identical
/// stream names and lengths — same program, same shapes) into one StreamMap
/// of B-lane pack Values.  Width 1 returns a plain copy (no packs).
/// Throws ValueError on mismatched names or lengths.
run::StreamMap packLanes(const std::vector<const run::StreamMap*>& laneInputs);

/// Splits a packed output StreamMap back into per-tenant maps.  A scalar
/// element (a control-only value, uniform across tenants) replicates into
/// every lane; a pack element must have exactly `width` lanes.
std::vector<run::StreamMap> unpackLanes(const run::StreamMap& packed,
                                        std::size_t width);

}  // namespace valpipe::serve
