// Backend registry of the bbpim::db facade.
//
// A session routes every query to one of five executors: the three PIM
// engine variants of the paper (one-xb, two-xb, and the PIMDB baseline of
// [1]), the MonetDB-like columnar cost model, and the scalar reference
// executor that serves as the semantics oracle. Backend selection is a
// runtime choice — the PIMDB comparison of the paper only makes sense when
// the same bound query can be replayed against any of them.
#pragma once

#include <cstdint>
#include <optional>

#include "engine/latency_model.hpp"

namespace bbpim::db {

enum class BackendKind : std::uint8_t {
  kOneXb,      ///< record in one crossbar row + aggregation circuit
  kTwoXb,      ///< vertical partitioning across two aligned page sets
  kPimdb,      ///< bit-serial bulk-bitwise aggregation (PIMDB baseline)
  kColumnar,   ///< MonetDB-like columnar scan cost model (mnt-join)
  kReference,  ///< scalar scan oracle (exact rows, no cost model)
};

const char* backend_name(BackendKind kind);

/// The engine variant behind a PIM backend; nullopt for the host baselines.
std::optional<engine::EngineKind> engine_kind_of(BackendKind kind);

/// The backend wrapping an engine variant.
BackendKind backend_of(engine::EngineKind kind);

}  // namespace bbpim::db
