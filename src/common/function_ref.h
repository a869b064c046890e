#ifndef VC_COMMON_FUNCTION_REF_H_
#define VC_COMMON_FUNCTION_REF_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace vc {

template <typename Signature>
class FunctionRef;

/// \brief A non-owning reference to a callable (llvm::function_ref
/// analogue): two words, never allocates.
///
/// The referenced callable must outlive every call through the reference,
/// so take it as a parameter and call it before returning; never store it.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return std::invoke(
              *static_cast<std::remove_reference_t<F>*>(object),
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace vc

#endif  // VC_COMMON_FUNCTION_REF_H_
