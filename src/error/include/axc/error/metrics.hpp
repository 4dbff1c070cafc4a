/// \file metrics.hpp
/// Quality metrics for approximate arithmetic.
///
/// The paper quantifies output quality with error probability ("accuracy
/// %", Table IV), error cases and maximum error value (Table III, Fig. 5).
/// The wider approximate-arithmetic literature the paper builds on adds
/// mean error distance (MED) and relative variants; all are collected here
/// so that every component is judged with one vocabulary.
#pragma once

#include <cstdint>

namespace axc::error {

/// Aggregated error statistics of an approximate operator vs its exact
/// reference over some input population.
struct ErrorStats {
  std::uint64_t samples = 0;       ///< inputs evaluated
  std::uint64_t error_count = 0;   ///< inputs with any output difference
  std::uint64_t max_error = 0;     ///< max |approx - exact|
  double error_rate = 0.0;         ///< error_count / samples
  double mean_error_distance = 0.0;      ///< E[|approx - exact|] (MED)
  double normalized_med = 0.0;           ///< MED / max exact output (NMED)
  double mean_relative_error = 0.0;      ///< E[|err| / max(exact, 1)] (MRED)
  double mean_squared_error = 0.0;       ///< E[err^2]
  double root_mean_squared_error = 0.0;  ///< sqrt(MSE)
  bool exhaustive = false;         ///< true if the full input space was swept

  /// Accuracy percentage as used by Table IV: (1 - error_rate) * 100.
  double accuracy_percent() const { return (1.0 - error_rate) * 100.0; }
};

/// Exact error figures of an N-bit adder under i.i.d. uniform operands
/// and carry-in 0, from an analytic model instead of a sweep
/// (error::ripple_error_model, designspace::hetero_error_model).
struct AdderErrorModel {
  double error_rate = 0.0;  ///< P(approx != exact)
  double med = 0.0;         ///< E|approx - exact|
  double nmed = 0.0;        ///< med / (2^(N+1) - 2), the evaluate_adder ceiling
  std::uint64_t wce = 0;    ///< max |approx - exact|
  bool exact = false;       ///< true when the adder has zero error
};

/// Streaming accumulator for ErrorStats.
///
/// \p output_ceiling is the largest exact output value possible (used for
/// NMED normalization); pass 0 to skip normalization.
class ErrorAccumulator {
 public:
  explicit ErrorAccumulator(std::uint64_t output_ceiling = 0)
      : output_ceiling_(output_ceiling) {}

  /// Records one (approx, exact) output pair.
  void record(std::uint64_t approx, std::uint64_t exact);

  /// Folds \p other (accumulated over a disjoint slice of the input
  /// population) into this accumulator. Integer tallies (samples, error
  /// count, max error) combine exactly; floating sums add the other
  /// accumulator's subtotal, so reducing fixed chunks in index order
  /// yields bit-identical results for any worker count (the property the
  /// parallel evaluate_function relies on).
  void merge(const ErrorAccumulator& other);

  /// Finalizes the averages. \p exhaustive marks a full-input-space sweep.
  ErrorStats finish(bool exhaustive) const;

 private:
  std::uint64_t output_ceiling_;
  std::uint64_t samples_ = 0;
  std::uint64_t error_count_ = 0;
  std::uint64_t max_error_ = 0;
  double sum_abs_ = 0.0;
  double sum_sq_ = 0.0;
  double sum_rel_ = 0.0;
};

}  // namespace axc::error
