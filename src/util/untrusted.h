#pragma once

#include <type_traits>
#include <utility>

namespace tcvs {
namespace util {

/// \file
/// `Tainted<T>`: a zero-overhead quarantine wrapper for server-originated
/// values. A `Tainted<T>` holds a fully parsed `T` but refuses to become one:
/// there is no implicit conversion, no mutable access, and the only unwrap
/// path is `Endorse()` / `TCVS_ENDORSE`, which demands a *registered verifier
/// token* — a tag type declared next to the cryptographic check that makes
/// the unwrap sound (VO verification, signature verification, consistency
/// proof, envelope check). Forgetting a Verify call no longer compiles.
///
/// Two ways to touch the payload:
///
///  1. `TCVS_ENDORSE(std::move(t), mtree::VoVerified{})` — unwrap after the
///     corresponding check succeeded. The verifier argument names *which*
///     check, and must be a registered token (rule R1, SFINAE below).
///     `Endorse` is the one friend of the wrapper, so nothing else can move
///     the payload out (rule R3).
///  2. `t.untrusted()` — a const borrow for *inspection only*: routing on a
///     request id, feeding bytes into a verifier, serializing the value back
///     out. What it yields cannot reach trusted state (rule R2): the
///     Protocol II registers fold only a core::Transition, whose roots a
///     checked VO produced ("quarantine pattern": sync/agg pools hold
///     Tainted values and only ever borrow, because the pooled
///     XOR-telescope comparison *is* the verification and no trusted state
///     is derived from the pool).
///
/// Registering a verifier token: declare the token struct next to the check
/// it attests and put `TCVS_TAINT_VERIFIER(Name);` in its body. The macro
/// defines the trait tag SFINAE keys on; an `Endorse` call with an
/// unregistered functor does not build.

/// Trait: V is a registered taint-verifier token (declared with
/// TCVS_TAINT_VERIFIER). Detection-idiom so negative probes in
/// tests/taint_test.cc can static_assert on it.
template <typename V, typename = void>
struct IsRegisteredTaintVerifier : std::false_type {};
template <typename V>
struct IsRegisteredTaintVerifier<
    V, std::void_t<typename V::tcvs_taint_verifier_tag>> : std::true_type {};

/// Put inside a verifier token struct to register it with the taint layer.
/// `Name` must be the struct's own (unqualified) name.
#define TCVS_TAINT_VERIFIER(Name) using tcvs_taint_verifier_tag = Name

template <typename T>
class Tainted;

/// \brief Unwraps a tainted value after its check succeeded.
///
/// `verifier` must be a registered token (TCVS_TAINT_VERIFIER); the
/// constraint is SFINAE, not static_assert, so an unregistered functor makes
/// `Endorse` simply not participate in overload resolution — which both
/// hard-stops real code and lets tests probe the negative case with the
/// detection idiom. Takes the Tainted by value: endorsing consumes the
/// quarantined object.
template <typename T, typename V,
          typename = std::enable_if_t<IsRegisteredTaintVerifier<V>::value>>
T Endorse(Tainted<T> value, const V& verifier);

/// \brief A `T` that crossed the trust boundary and has not been verified.
///
/// Zero overhead: the wrapper is exactly `sizeof(T)` and every accessor is a
/// trivially inlined reference return. No default construction (a tainted
/// value always comes from somewhere), no implicit conversion to `T`, no
/// mutable access — an attacker-controlled value cannot be patched into
/// shape before verification.
template <typename T>
class Tainted {
 public:
  using value_type = T;

  Tainted() = delete;
  explicit Tainted(T value) : value_(std::move(value)) {}

  Tainted(const Tainted&) = default;
  Tainted(Tainted&&) = default;
  Tainted& operator=(const Tainted&) = default;
  Tainted& operator=(Tainted&&) = default;

  /// Const borrow for inspection/verification only. Deleted on rvalues so a
  /// borrow can never dangle from a temporary
  /// (`Deserialize(b)->untrusted()` does not compile).
  const T& untrusted() const& { return value_; }
  const T& untrusted() && = delete;

 private:
  template <typename U, typename V, typename Registered>
  friend U Endorse(Tainted<U> value, const V& verifier);

  T value_;
};

template <typename T, typename V, typename Registered>
T Endorse(Tainted<T> value, const V& /*verifier*/) {
  return std::move(value.value_);
}

/// Canonical spelling at endorsement points.
#define TCVS_ENDORSE(value, verifier) ::tcvs::util::Endorse((value), (verifier))

}  // namespace util
}  // namespace tcvs
