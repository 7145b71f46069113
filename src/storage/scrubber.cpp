#include "storage/scrubber.h"

namespace lepton::storage {

void Scrubber::start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (running_) return;
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { thread_main(); });
}

void Scrubber::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lk(mu_);
  running_ = false;
}

bool Scrubber::throttle(std::uint64_t bytes_read) {
  if (cfg_.rate_limit_bytes_per_s == 0) {
    std::lock_guard<std::mutex> lk(mu_);
    return !stopping_;
  }
  // Token bucket with zero stored credit: after reading B bytes we owe
  // B / rate seconds of idleness before the next read.
  auto debt = std::chrono::microseconds(
      bytes_read * 1'000'000 / cfg_.rate_limit_bytes_per_s);
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait_for(lk, debt, [this] { return stopping_; });
  return !stopping_;
}

void Scrubber::run_pass() {
  std::vector<DurableStore::ScrubItem> items = store_->scrub_snapshot();
  unsigned lepton_seen = 0;
  for (const DurableStore::ScrubItem& item : items) {
    bool decode_check = false;
    if (item.kind == StorageKind::kLepton && cfg_.decode_check_every != 0) {
      decode_check = (lepton_seen++ % cfg_.decode_check_every) == 0;
    }
    std::uint64_t bytes = store_->scrub_verify_object(item, decode_check);
    // run_pass() is also the synchronous entry point (scrub_pass_now);
    // only the background thread throttles.
    if (running_ && !throttle(bytes)) return;
  }
  store_->scrub_verify_journal();
}

void Scrubber::thread_main() {
  for (;;) {
    run_pass();
    {
      std::lock_guard<std::mutex> lk(store_->mu_);
      ++store_->stats_.scrub_passes;
    }
    std::unique_lock<std::mutex> lk(mu_);
    if (cv_.wait_for(lk, cfg_.pass_interval, [this] { return stopping_; })) {
      return;
    }
  }
}

}  // namespace lepton::storage
