#include "db/backend.hpp"

namespace bbpim::db {

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kOneXb:
    case BackendKind::kTwoXb:
    case BackendKind::kPimdb:
      return engine::engine_kind_name(*engine_kind_of(kind));
    case BackendKind::kColumnar: return "columnar";
    case BackendKind::kReference: return "reference";
  }
  return "?";
}

std::optional<engine::EngineKind> engine_kind_of(BackendKind kind) {
  switch (kind) {
    case BackendKind::kOneXb: return engine::EngineKind::kOneXb;
    case BackendKind::kTwoXb: return engine::EngineKind::kTwoXb;
    case BackendKind::kPimdb: return engine::EngineKind::kPimdb;
    case BackendKind::kColumnar:
    case BackendKind::kReference: return std::nullopt;
  }
  return std::nullopt;
}

BackendKind backend_of(engine::EngineKind kind) {
  switch (kind) {
    case engine::EngineKind::kOneXb: return BackendKind::kOneXb;
    case engine::EngineKind::kTwoXb: return BackendKind::kTwoXb;
    case engine::EngineKind::kPimdb: return BackendKind::kPimdb;
  }
  return BackendKind::kOneXb;
}

}  // namespace bbpim::db
