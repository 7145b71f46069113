// Spans recorded by the benchmark around its calls into each layer.
//
// Each client thread owns one SpanBuffer, so recording takes no lock. A
// span is {layer, phase, parent, op, start, end} plus two layer-specific
// values; an operation is a root span (parent -1) and the layer calls it
// made are its children. Buffers stay in memory and are written out when
// the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kOpPut,        // root: one put as the client saw it (a = bytes, b = ok)
  kOpGet,        // root: one get (a = bytes, b = ok)
  kRing,         // HashRing::shard_of
  kLookup,       // DurableStore::lookup
  kConnect,      // LeptonClient::connect to the endpoint the fleet uses
  kConvert,      // FleetClient::convert (a = attempts, b = ttfb ns)
  kAdmit,        // TransparentStore::admit_converted (a = admitted)
  kPassthrough,  // TransparentStore::put_passthrough
  kPutObject,    // DurableStore::put_object (a = deduplicated, b = stored)
  kCacheGet,     // DecodeCache::get (a = hit)
  kGetObject,    // DurableStore::get_object
  kCodecGet,     // TransparentStore::get
  kCachePut,     // DecodeCache::put
  kCount
};

const char* layer_name(Layer l);

enum class Phase : std::uint8_t { kPopulate, kTimed, kGate, kCount };

const char* phase_name(Phase p);

struct Span {
  Layer layer = Layer::kOpPut;
  Phase phase = Phase::kTimed;
  std::int32_t parent = -1;  // index in the same buffer; -1 = root
  std::uint32_t op = 0;      // operation index within its client's list
  std::int64_t t0 = 0, t1 = 0;
  std::int64_t a = 0, b = 0;
};

class SpanBuffer {
 public:
  SpanBuffer(int client, Phase phase) : client_(client), phase_(phase) {}

  // Opens a span; the returned index stays valid as the buffer grows.
  int open(Layer l, int parent, std::uint32_t op) {
    Span s;
    s.layer = l;
    s.phase = phase_;
    s.parent = parent;
    s.op = op;
    s.t0 = now_ns();
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int ix) { spans_[static_cast<std::size_t>(ix)].t1 = now_ns(); }
  Span& at(int ix) { return spans_[static_cast<std::size_t>(ix)]; }

  int client() const { return client_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int client_;
  Phase phase_;
  std::vector<Span> spans_;
};

// Times one layer call as a child of `parent` when `buf` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, Layer l, int parent)
      : buf_(buf),
        ix_(buf == nullptr ? -1 : buf->open(l, parent, buf->at(parent).op)) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->close(ix_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set(std::int64_t a, std::int64_t b = 0) {
    if (buf_ != nullptr) {
      buf_->at(ix_).a = a;
      buf_->at(ix_).b = b;
    }
  }

 private:
  SpanBuffer* buf_;
  int ix_;
};

// Every span of a traced run, merged from the client buffers.
struct TraceLog {
  struct Buffer {
    int client = 0;
    std::vector<Span> spans;  // parents index into this vector
  };
  std::vector<Buffer> buffers;

  void absorb(const SpanBuffer& b);
  // Durations (ms) of one layer's spans in one phase, optionally only those
  // whose `a` equals `a_filter` (a_filter < 0 = all).
  std::vector<double> durations(Layer l, Phase p, int a_filter = -1) const;
  std::size_t count(Layer l, Phase p) const;
  // Writes one tab-separated line per span; false on I/O failure.
  bool write_tsv(const std::string& path) const;
};

// Per-operation residual: each root span's duration minus the time its
// child spans cover, in ms, for roots of `root` layer in `phase`.
std::vector<double> residuals(const TraceLog& log, Layer root, Phase phase);

}  // namespace perfbench
