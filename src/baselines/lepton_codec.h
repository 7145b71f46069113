// Adapts the Lepton public API to the comparison-codec interface so the
// Figure 1/2/3 benches treat it uniformly ("Lepton" and "Lepton 1-way").
// Drives the streaming sessions directly (session.h) — the same single
// codec path as every other entry point.
#pragma once

#include "baselines/codec_iface.h"
#include "lepton/codec.h"
#include "lepton/session.h"

namespace lepton::baselines {

class LeptonCodecAdapter : public Codec {
 public:
  explicit LeptonCodecAdapter(bool one_way) : one_way_(one_way) {
    if (one_way) opts_.force_threads = 1;
  }
  std::string name() const override {
    return one_way_ ? "lepton-1way" : "lepton";
  }
  bool jpeg_aware() const override { return true; }
  CodecResult encode(std::span<const std::uint8_t> input) override {
    VectorSink sink;
    EncodeSession session(opts_);
    session.feed(input);
    auto code = session.finish(sink);
    return {code, std::move(sink.data)};
  }
  CodecResult decode(std::span<const std::uint8_t> input) override {
    VectorSink sink;
    DecodeSession session(sink);
    session.feed(input);
    auto code = session.finish();
    return {code, std::move(sink.data)};
  }

 private:
  bool one_way_;
  EncodeOptions opts_;
};

}  // namespace lepton::baselines
