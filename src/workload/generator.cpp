#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/zipf.h"

namespace mib::workload {

namespace {
/// Request lengths drawn from one LengthDistribution: power-of-two bins
/// between min and max, and a Zipf over the bins that biases toward short
/// requests the way production traces do. Built once per distribution.
class LengthSampler {
 public:
  explicit LengthSampler(const LengthDistribution& d)
      : bins_(bins_of(d)),
        fixed_(d.min_tokens == d.max_tokens),
        // A fixed length draws nothing, so its skew is never read.
        zipf_(bins_.size(), fixed_ ? 0.0 : d.skew) {}

  int sample(Rng& rng) const {
    if (fixed_) return bins_[0].first;
    const auto [lo, hi] = bins_[zipf_.sample(rng)];
    return lo + static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  static std::vector<std::pair<int, int>> bins_of(const LengthDistribution& d) {
    MIB_ENSURE(d.min_tokens >= 1, "min_tokens must be >= 1");
    MIB_ENSURE(d.max_tokens >= d.min_tokens, "empty length range");
    std::vector<std::pair<int, int>> bins;
    for (int lo = d.min_tokens; lo <= d.max_tokens; lo *= 2) {
      bins.push_back({lo, std::min(d.max_tokens, lo * 2 - 1)});
      if (lo > d.max_tokens / 2) break;
    }
    return bins;
  }

  std::vector<std::pair<int, int>> bins_;
  bool fixed_;
  ZipfSampler zipf_;
};
}  // namespace

std::vector<engine::Request> generate_trace(const TraceConfig& cfg) {
  MIB_ENSURE(cfg.n_requests >= 1, "trace needs at least one request");
  const LengthSampler input(cfg.input);
  const LengthSampler output(cfg.output);
  Rng rng(cfg.seed);
  std::vector<engine::Request> out;
  out.reserve(cfg.n_requests);
  for (int i = 0; i < cfg.n_requests; ++i) {
    engine::Request r;
    r.input_tokens = input.sample(rng);
    r.output_tokens = output.sample(rng);
    r.n_images = cfg.images_per_request;
    r.validate();
    out.push_back(r);
  }
  return out;
}

std::vector<Turn> generate_conversations(const ConversationConfig& cfg) {
  MIB_ENSURE(cfg.n_conversations >= 1, "need at least one conversation");
  MIB_ENSURE(cfg.turns_per_conversation >= 1, "need at least one turn");
  MIB_ENSURE(cfg.system_prompt_tokens >= 1, "system prompt must be non-empty");
  const LengthSampler user_turn(cfg.user_turn);
  const LengthSampler reply_len(cfg.reply);
  Rng rng(cfg.seed);
  std::vector<Turn> out;
  out.reserve(static_cast<std::size_t>(cfg.n_conversations) *
              cfg.turns_per_conversation);
  for (int conv = 0; conv < cfg.n_conversations; ++conv) {
    int history = cfg.system_prompt_tokens;
    for (int turn = 0; turn < cfg.turns_per_conversation; ++turn) {
      const int user = user_turn.sample(rng);
      const int reply = reply_len.sample(rng);
      Turn t;
      t.conversation = conv;
      t.turn = turn;
      t.shared_prefix_tokens = history;  // everything before this turn
      t.request.input_tokens = history + user;
      t.request.output_tokens = reply;
      t.request.validate();
      out.push_back(t);
      history += user + reply;  // the reply joins the shared history
    }
  }
  return out;
}

const std::vector<int>& paper_batch_sizes() {
  static const std::vector<int> v = {1, 16, 32, 64};
  return v;
}

const std::vector<int>& paper_sequence_lengths() {
  static const std::vector<int> v = {128, 256, 512, 1024, 2048};
  return v;
}

const std::vector<int>& extended_batch_sizes() {
  static const std::vector<int> v = {1, 16, 32, 64, 128};
  return v;
}

}  // namespace mib::workload
