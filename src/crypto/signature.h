#pragma once

#include "util/bytes.h"
#include "util/result.h"

namespace tcvs {
namespace crypto {

/// \brief Verifies the MSS `signature` (merkle_sig.h) over `message` under
/// the 32-byte root `public_key`. This is the one verify path of the
/// protocols' PKI, and every failure through it is audited.
///
/// \return OK if valid; VerificationFailure if the signature does not verify;
///         InvalidArgument if the signature or the key is malformed.
Status Verify(const Bytes& public_key, const Bytes& message,
              const Bytes& signature);

}  // namespace crypto
}  // namespace tcvs
