// Functional vision encoder (SigLIP-class ViT) — the tower in front of the
// DeepSeek-VL2 / MolmoE language models.
//
// Real numerics at small scale: patch embedding (linear over flattened
// patches), a stack of pre-norm ViT blocks (bidirectional attention + MLP),
// and a projector into the LLM's hidden size. Together with
// moe::Transformer this makes the full VLM pipeline executable: pixels ->
// patch tokens -> MoE LLM decoding.
#pragma once

#include <memory>
#include <vector>

#include "moe/attention.h"
#include "moe/expert.h"

namespace mib::moe {

struct VisionEncoderConfig {
  int image_size = 32;   ///< square input, pixels
  int patch_size = 8;    ///< square patches
  int channels = 3;
  int hidden = 64;       ///< ViT width
  int n_heads = 4;
  int n_layers = 2;
  int mlp_dim = 128;
  int llm_hidden = 64;   ///< projector output width

  void validate() const;
  int patches_per_side() const { return image_size / patch_size; }
  int n_patches() const { return patches_per_side() * patches_per_side(); }
  int patch_dim() const { return channels * patch_size * patch_size; }
  /// Every block's attention: MHA with hidden / n_heads wide heads.
  AttentionConfig attention() const {
    return {hidden, n_heads, n_heads, hidden / n_heads};
  }
};

class VisionEncoder {
 public:
  VisionEncoder(VisionEncoderConfig cfg, std::uint64_t seed);

  const VisionEncoderConfig& config() const { return cfg_; }

  /// Encode one image [channels, H, W] flattened row-major into
  /// [n_patches, llm_hidden] tokens for the language model.
  Tensor encode(const Tensor& image) const;

  std::size_t param_count() const;

 private:
  /// Bidirectional (non-causal) attention over the patch tokens.
  Tensor self_attention(const Attention& attn, const Tensor& x) const;

  struct Block {
    std::unique_ptr<RmsNorm> attn_norm;
    std::unique_ptr<Attention> attention;
    std::unique_ptr<RmsNorm> mlp_norm;
    std::unique_ptr<Expert> mlp;  // SwiGLU MLP reuses the Expert math
  };

  VisionEncoderConfig cfg_;
  Tensor patch_embed_;  // [hidden, patch_dim]
  Tensor pos_embed_;    // [n_patches, hidden]
  std::vector<Block> blocks_;
  std::unique_ptr<RmsNorm> final_norm_;
  Tensor projector_;    // [llm_hidden, hidden]
};

}  // namespace mib::moe
