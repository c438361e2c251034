// Seeded-bad fixture for `tools/taint_check.py --self-test`. NEVER compiled
// or linked.
//
// Bug: the Protocol II register fold consumes a reply borrowed from
// quarantine. Nothing verified the VO behind `pre_root`, so a Byzantine
// server could steer σ/last and make a forked history telescope.
#include "core/protocol_core.h"
#include "core/wire.h"
#include "util/untrusted.h"

namespace tcvs {
namespace core {

void BadFold(Registers& registers, const crypto::Digest& pre_root,
             const util::Tainted<QueryResponse>& quarantined) {
  const QueryResponse& resp = quarantined.untrusted();
  // taint-expect: unendorsed-sink-flow
  registers.Fold(pre_root, pre_root, resp.ctr, resp.creator, 1);
}

}  // namespace core
}  // namespace tcvs
