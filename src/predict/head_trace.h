#ifndef VC_PREDICT_HEAD_TRACE_H_
#define VC_PREDICT_HEAD_TRACE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "geometry/orientation.h"

namespace vc {

/// One orientation observation from a head-mounted display.
struct TraceSample {
  double t = 0.0;  ///< Seconds since playback start.
  Orientation orientation;
};

/// \brief A viewer's head-movement trace: timestamped gaze orientations.
///
/// Stands in for the public 360° head-movement datasets the paper's
/// demonstration drew on; traces are either synthesized (see
/// trace_synthesizer.h) or loaded from CSV (`t,yaw,pitch` rows, radians),
/// the format those datasets are commonly distributed in.
class HeadTrace {
 public:
  HeadTrace() = default;

  /// Builds a trace from samples; they must be in strictly increasing time
  /// order starting at t ≥ 0.
  static Result<HeadTrace> FromSamples(std::vector<TraceSample> samples);

  /// Orientation at time `t`, interpolating between samples (shortest-path
  /// in yaw, linear in pitch) and clamping outside the sampled range. A NaN
  /// `t` clamps to the first sample.
  Orientation At(double t) const;

  /// At(t) for a caller whose query times mostly move forward: the search
  /// for the bracketing pair walks forward from `*cursor` and leaves it
  /// there for the next call, falling back to a binary search when `t`
  /// moves backwards or the cursor is out of range. The pair is the same
  /// as At(t)'s, so the result is bit-identical. A cursor starts at 0 and
  /// belongs to one trace.
  Orientation At(double t, size_t* cursor) const;

  double duration() const {
    return samples_.empty() ? 0.0 : samples_.back().t;
  }
  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const std::vector<TraceSample>& samples() const { return samples_; }

  /// Serializes to "t,yaw,pitch\n" CSV (with a header row).
  std::string ToCsv() const;

  /// Parses the CSV format written by ToCsv (header row optional).
  static Result<HeadTrace> FromCsv(Slice csv);

 private:
  std::vector<TraceSample> samples_;
};

}  // namespace vc

#endif  // VC_PREDICT_HEAD_TRACE_H_
