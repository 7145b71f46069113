#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kOpPut: return "op.put";
    case Layer::kOpGet: return "op.get";
    case Layer::kRing: return "storage.HashRing::shard_of";
    case Layer::kLookup: return "storage.DurableStore::lookup";
    case Layer::kConnect: return "server.LeptonClient::connect";
    case Layer::kConvert: return "storage.FleetClient::convert";
    case Layer::kAdmit: return "lepton.TransparentStore::admit_converted";
    case Layer::kPassthrough: return "lepton.TransparentStore::put_passthrough";
    case Layer::kPutObject: return "storage.DurableStore::put_object";
    case Layer::kCacheGet: return "storage.DecodeCache::get";
    case Layer::kGetObject: return "storage.DurableStore::get_object";
    case Layer::kCodecGet: return "lepton.TransparentStore::get";
    case Layer::kCachePut: return "storage.DecodeCache::put";
    case Layer::kCount: break;
  }
  return "?";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kPopulate: return "populate";
    case Phase::kTimed: return "timed";
    case Phase::kGate: return "gate";
    case Phase::kCount: break;
  }
  return "?";
}

void TraceLog::absorb(const SpanBuffer& b) {
  buffers.push_back({b.client(), b.spans()});
}

std::vector<double> TraceLog::durations(Layer l, Phase p, int a_filter) const {
  std::vector<double> out;
  for (const Buffer& b : buffers) {
    for (const Span& s : b.spans) {
      if (s.layer == l && s.phase == p && (a_filter < 0 || s.a == a_filter)) {
        out.push_back(ms_between(s.t0, s.t1));
      }
    }
  }
  return out;
}

std::size_t TraceLog::count(Layer l, Phase p) const {
  std::size_t n = 0;
  for (const Buffer& b : buffers) {
    for (const Span& s : b.spans) n += s.layer == l && s.phase == p;
  }
  return n;
}

bool TraceLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "client\tphase\top\tspan\tparent\tlayer\tstart_ns\tend_ns\ta\tb\n");
  for (const Buffer& b : buffers) {
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      std::fprintf(f, "%d\t%s\t%u\t%zu\t%d\t%s\t%lld\t%lld\t%lld\t%lld\n",
                   b.client, phase_name(s.phase), s.op, i, s.parent,
                   layer_name(s.layer), static_cast<long long>(s.t0),
                   static_cast<long long>(s.t1), static_cast<long long>(s.a),
                   static_cast<long long>(s.b));
    }
  }
  return std::fclose(f) == 0;
}

std::vector<double> residuals(const TraceLog& log, Layer root, Phase phase) {
  std::vector<double> out;
  for (const TraceLog::Buffer& b : log.buffers) {
    // Children follow their root in the buffer and never overlap each
    // other (one client thread makes its calls one after another).
    std::vector<std::int64_t> child_ns(b.spans.size(), 0);
    for (const Span& s : b.spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
      }
    }
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      if (s.parent < 0 && s.layer == root && s.phase == phase) {
        out.push_back(static_cast<double>(s.t1 - s.t0 - child_ns[i]) / 1e6);
      }
    }
  }
  return out;
}

}  // namespace perfbench
