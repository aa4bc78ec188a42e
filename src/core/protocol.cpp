#include "core/protocol.hpp"

namespace ew::core {

const char* infra_name(Infra i) {
  switch (i) {
    case Infra::kUnix: return "Unix";
    case Infra::kGlobus: return "Globus";
    case Infra::kLegion: return "Legion";
    case Infra::kCondor: return "Condor";
    case Infra::kNT: return "NT";
    case Infra::kJava: return "Java";
    case Infra::kNetSolve: return "Netsolve";
  }
  return "Unknown";
}

}  // namespace ew::core
