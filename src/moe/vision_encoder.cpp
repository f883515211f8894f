#include "moe/vision_encoder.h"

#include <cmath>

#include "common/error.h"

namespace mib::moe {

void VisionEncoderConfig::validate() const {
  MIB_ENSURE(image_size > 0 && patch_size > 0, "positive dims required");
  MIB_ENSURE(image_size % patch_size == 0,
             "image size must be divisible by patch size");
  MIB_ENSURE(channels >= 1, "need at least one channel");
  MIB_ENSURE(hidden > 0 && llm_hidden > 0, "positive widths required");
  MIB_ENSURE(n_layers >= 1, "need at least one block");
  MIB_ENSURE(mlp_dim > 0, "positive MLP dim required");
  MIB_ENSURE(n_heads > 0, "n_heads must be positive");
  MIB_ENSURE(hidden % n_heads == 0, "hidden must divide by heads");
  attention().validate();
}

VisionEncoder::VisionEncoder(VisionEncoderConfig cfg, std::uint64_t seed)
    : cfg_(cfg) {
  cfg_.validate();
  Rng rng(seed);
  const auto h = static_cast<std::size_t>(cfg_.hidden);
  patch_embed_ = Tensor::randn(
      {h, static_cast<std::size_t>(cfg_.patch_dim())}, rng,
      1.0f / std::sqrt(static_cast<float>(cfg_.patch_dim())));
  pos_embed_ = Tensor::randn(
      {static_cast<std::size_t>(cfg_.n_patches()), h}, rng, 0.02f);

  blocks_.resize(cfg_.n_layers);
  for (auto& b : blocks_) {
    Rng layer_rng = rng.split();
    b.attn_norm = std::make_unique<RmsNorm>(cfg_.hidden);
    b.attention = std::make_unique<Attention>(cfg_.attention(), layer_rng);
    b.mlp_norm = std::make_unique<RmsNorm>(cfg_.hidden);
    b.mlp = std::make_unique<Expert>(cfg_.hidden, cfg_.mlp_dim, layer_rng);
  }
  final_norm_ = std::make_unique<RmsNorm>(cfg_.hidden);
  projector_ = Tensor::randn(
      {static_cast<std::size_t>(cfg_.llm_hidden), h}, rng,
      1.0f / std::sqrt(static_cast<float>(cfg_.hidden)));
}

Tensor VisionEncoder::self_attention(const Attention& attn,
                                     const Tensor& x) const {
  // ViT attention is bidirectional. The causal Attention core is reused by
  // running it twice — forward and on the reversed sequence — and averaging:
  // every token then attends over the full set. This keeps one attention
  // implementation while matching the bidirectional receptive field.
  KvState kv_fwd = attn.new_cache();
  const Tensor fwd = attn.forward(x, kv_fwd, 0);

  const std::size_t n = x.dim(0);
  Tensor rev({n, x.dim(1)});
  for (std::size_t t = 0; t < n; ++t) {
    const auto src = x.row(n - 1 - t);
    std::copy(src.begin(), src.end(), rev.row(t).begin());
  }
  KvState kv_rev = attn.new_cache();
  const Tensor bwd = attn.forward(rev, kv_rev, 0);

  Tensor out({n, x.dim(1)});
  for (std::size_t t = 0; t < n; ++t) {
    const auto f = fwd.row(t);
    const auto b = bwd.row(n - 1 - t);
    auto o = out.row(t);
    for (std::size_t j = 0; j < o.size(); ++j) {
      o[j] = 0.5f * (f[j] + b[j]);
    }
  }
  return out;
}

Tensor VisionEncoder::encode(const Tensor& image) const {
  MIB_ENSURE(image.rank() == 1 &&
                 image.size() == static_cast<std::size_t>(
                                     cfg_.channels * cfg_.image_size *
                                     cfg_.image_size),
             "image must be a flat [channels*H*W] tensor of the configured "
             "size");
  const int side = cfg_.patches_per_side();
  const int ps = cfg_.patch_size;
  const auto n = static_cast<std::size_t>(cfg_.n_patches());
  const auto pd = static_cast<std::size_t>(cfg_.patch_dim());

  // Extract flattened patches: patch (py, px) gathers a ps x ps window from
  // every channel.
  Tensor patches({n, pd});
  const float* img = image.data();
  const int is = cfg_.image_size;
  for (int py = 0; py < side; ++py) {
    for (int px = 0; px < side; ++px) {
      auto row = patches.row(static_cast<std::size_t>(py * side + px));
      std::size_t w = 0;
      for (int c = 0; c < cfg_.channels; ++c) {
        for (int y = 0; y < ps; ++y) {
          for (int x = 0; x < ps; ++x) {
            row[w++] = img[(c * is + py * ps + y) * is + px * ps + x];
          }
        }
      }
    }
  }

  // Patch embedding + positional embedding.
  Tensor tokens;
  matmul(patches, patch_embed_, tokens, /*b_transposed=*/true);
  add_inplace(tokens, pos_embed_);

  // ViT blocks (pre-norm residual).
  for (const auto& b : blocks_) {
    Tensor normed = tokens;
    b.attn_norm->apply(normed);
    add_inplace(tokens, self_attention(*b.attention, normed));
    Tensor mlp_in = tokens;
    b.mlp_norm->apply(mlp_in);
    add_inplace(tokens, b.mlp->forward(mlp_in));
  }
  final_norm_->apply(tokens);

  Tensor out;
  matmul(tokens, projector_, out, /*b_transposed=*/true);
  return out;  // [n_patches, llm_hidden]
}

std::size_t VisionEncoder::param_count() const {
  std::size_t p = patch_embed_.size() + pos_embed_.size() +
                  projector_.size() +
                  static_cast<std::size_t>(cfg_.hidden);
  for (const auto& b : blocks_) {
    p += b.attention->param_count() + b.mlp->param_count() +
         2u * static_cast<std::size_t>(cfg_.hidden);
  }
  return p;
}

}  // namespace mib::moe
