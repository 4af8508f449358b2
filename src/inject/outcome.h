// Injection outcome taxonomy (paper Sec. 2.1).
//
//   Vanished - normal termination, output matches the error-free run
//   OMM      - normal termination, output differs (=> SDC)
//   UT       - abnormal termination (trap)                  (=> DUE)
//   Hang     - no termination within 2x nominal execution   (=> DUE)
//   ED       - a resilience technique flagged the error and no hardware
//              recovery repaired it                          (=> DUE)
//   Recovered- detected AND repaired by hardware recovery; counts as
//              Vanished in Eq. 1 but is tracked separately
#ifndef CLEAR_INJECT_OUTCOME_H
#define CLEAR_INJECT_OUTCOME_H

#include <cstdint>

namespace clear::inject {

enum class Outcome : std::uint8_t {
  kVanished,
  kOmm,
  kUt,
  kHang,
  kEd,
  kRecovered,
};

struct OutcomeCounts {
  std::uint32_t vanished = 0;
  std::uint32_t omm = 0;
  std::uint32_t ut = 0;
  std::uint32_t hang = 0;
  std::uint32_t ed = 0;
  std::uint32_t recovered = 0;

  void add(Outcome o) noexcept {
    switch (o) {
      case Outcome::kVanished: ++vanished; break;
      case Outcome::kOmm: ++omm; break;
      case Outcome::kUt: ++ut; break;
      case Outcome::kHang: ++hang; break;
      case Outcome::kEd: ++ed; break;
      case Outcome::kRecovered: ++recovered; break;
    }
  }
  void merge(const OutcomeCounts& o) noexcept {
    vanished += o.vanished;
    omm += o.omm;
    ut += o.ut;
    hang += o.hang;
    ed += o.ed;
    recovered += o.recovered;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return static_cast<std::uint64_t>(vanished) + omm + ut + hang + ed +
           recovered;
  }
  // Eq. 1a numerator/denominator contribution: SDC-causing errors.
  [[nodiscard]] std::uint64_t sdc() const noexcept { return omm; }
  // Eq. 1b: DUE-causing errors (UT + Hang for unprotected designs; ED
  // counts as DUE when detected errors are not recovered).
  [[nodiscard]] std::uint64_t due() const noexcept {
    return static_cast<std::uint64_t>(ut) + hang + ed;
  }
};

}  // namespace clear::inject

#endif  // CLEAR_INJECT_OUTCOME_H
