#include "predict/head_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace vc {

Result<HeadTrace> HeadTrace::FromSamples(std::vector<TraceSample> samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("trace must contain samples");
  }
  if (samples.front().t < 0) {
    return Status::InvalidArgument("trace must start at t >= 0");
  }
  for (size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].t <= samples[i - 1].t) {
      return Status::InvalidArgument("trace timestamps must increase");
    }
  }
  for (TraceSample& sample : samples) {
    sample.orientation = sample.orientation.Normalized();
  }
  HeadTrace trace;
  trace.samples_ = std::move(samples);
  return trace;
}

Orientation HeadTrace::At(double t) const {
  size_t cursor = samples_.size();  // out of range: a plain binary search
  return At(t, &cursor);
}

Orientation HeadTrace::At(double t, size_t* cursor) const {
  if (samples_.empty()) return Orientation{};
  // Written so NaN clamps too: it would otherwise reach the search and
  // bracket before the first sample.
  if (!(t > samples_.front().t)) return samples_.front().orientation;
  if (t >= samples_.back().t) return samples_.back().orientation;
  // The pair is (hi - 1, hi) with hi the first sample at or after t. Here
  // samples_[0].t < t < samples_.back().t, so hi lies in [1, size).
  size_t hi_index = std::max<size_t>(*cursor, 1);
  if (hi_index >= samples_.size() || samples_[hi_index - 1].t >= t) {
    auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const TraceSample& s, double value) { return s.t < value; });
    hi_index = static_cast<size_t>(it - samples_.begin());
  } else {
    while (samples_[hi_index].t < t) ++hi_index;  // ends at the last sample
  }
  *cursor = hi_index;
  const TraceSample& hi = samples_[hi_index];
  const TraceSample& lo = samples_[hi_index - 1];
  double f = (t - lo.t) / (hi.t - lo.t);
  // Shortest-path interpolation in yaw, linear in pitch.
  double dyaw = YawDifference(hi.orientation.yaw, lo.orientation.yaw);
  Orientation out;
  out.yaw = WrapYaw(lo.orientation.yaw + f * dyaw);
  out.pitch =
      ClampPitch(lo.orientation.pitch +
                 f * (hi.orientation.pitch - lo.orientation.pitch));
  return out;
}

std::string HeadTrace::ToCsv() const {
  std::ostringstream out;
  out << "t,yaw,pitch\n";
  char line[96];
  for (const TraceSample& s : samples_) {
    std::snprintf(line, sizeof(line), "%.6f,%.6f,%.6f\n", s.t,
                  s.orientation.yaw, s.orientation.pitch);
    out << line;
  }
  return out.str();
}

Result<HeadTrace> HeadTrace::FromCsv(Slice csv) {
  std::vector<TraceSample> samples;
  std::string text = csv.ToString();
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line_number == 1 && line.find("yaw") != std::string::npos) {
      continue;  // header row
    }
    TraceSample sample;
    char* end = nullptr;
    const char* p = line.c_str();
    sample.t = std::strtod(p, &end);
    if (end == p || *end != ',') {
      return Status::Corruption("bad CSV at line " +
                                std::to_string(line_number));
    }
    p = end + 1;
    sample.orientation.yaw = std::strtod(p, &end);
    if (end == p || *end != ',') {
      return Status::Corruption("bad CSV at line " +
                                std::to_string(line_number));
    }
    p = end + 1;
    sample.orientation.pitch = std::strtod(p, &end);
    if (end == p) {
      return Status::Corruption("bad CSV at line " +
                                std::to_string(line_number));
    }
    samples.push_back(sample);
  }
  return FromSamples(std::move(samples));
}

}  // namespace vc
