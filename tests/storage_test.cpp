// Tests for the deployment simulator: event ordering, workload shape
// (Figure 5 weekday/weekend behaviour), outsourcing effects (Figures 9/10),
// backfill power accounting and the §5.6.1 cost constants, rollout dynamics
// (Figures 13/14) and the THP latency model (Figure 12).
#include <gtest/gtest.h>

#include "storage/backfill.h"
#include "storage/event_sim.h"
#include "storage/fleet.h"
#include "storage/rollout.h"
#include "storage/workload.h"

namespace ls = lepton::storage;

TEST(EventSim, OrdersEventsAndBreaksTiesByInsertion) {
  ls::EventSim sim;
  std::vector<int> order;
  sim.at(2.0, [&] { order.push_back(3); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(2.0, [&] { order.push_back(4); });  // same time: insertion order
  sim.at(1.5, [&] { order.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(EventSim, NestedSchedulingWorks) {
  ls::EventSim sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) sim.after(1.0, tick);
  };
  sim.after(1.0, tick);
  sim.run_until(50.0);
  EXPECT_EQ(count, 50);
  sim.run_until(1000.0);
  EXPECT_EQ(count, 100);
}

TEST(Workload, WeekdayDecodeRatioHigherThanWeekend) {
  // The Figure 5 phenomenon: weekday decode:encode → 1.5, weekend → 1.0.
  ls::WorkloadModel wl;
  double tuesday_noon = 1 * ls::kDay + 12 * ls::kHour;
  double saturday_noon = 5 * ls::kDay + 12 * ls::kHour;
  EXPECT_NEAR(wl.decode_rate(tuesday_noon) / wl.encode_rate(tuesday_noon),
              1.5, 1e-9);
  EXPECT_NEAR(wl.decode_rate(saturday_noon) / wl.encode_rate(saturday_noon),
              1.0, 1e-9);
}

TEST(Workload, DiurnalPeaksInEvening) {
  ls::WorkloadModel wl;
  double peak = ls::WorkloadModel::diurnal(19 * ls::kHour);
  double trough = ls::WorkloadModel::diurnal(7 * ls::kHour);
  EXPECT_GT(peak, trough * 1.8);
  EXPECT_LE(peak, 1.0 + 1e-9);
}

TEST(Workload, FileSizesBoundedAndAverageNearPaper) {
  ls::WorkloadModel wl;
  lepton::util::Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    double v = wl.sample_file_mb(rng);
    ASSERT_GT(v, 0.0);
    ASSERT_LE(v, 4.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 1.5, 0.4) << "§5.6.1: ~1.5 MB average image";
}

namespace {

// Small calibrated fleet: ~8 conversions/s per blockserver at peak (§5.5's
// "average of 5 encodes/s" per machine), 6 simulated hours spanning the
// 19:00 peak.
ls::FleetConfig small_fleet(ls::OutsourcePolicy policy) {
  ls::FleetConfig cfg;
  cfg.blockservers = 16;
  cfg.dedicated = 4;
  cfg.policy = policy;
  cfg.sim_start_hour = 14.0;
  return cfg;
}

ls::WorkloadModel peak_workload() {
  ls::WorkloadModel wl;
  wl.peak_encode_rate = 128.0;  // fleet-wide; 8/s per blockserver
  return wl;
}

}  // namespace

TEST(Fleet, OutsourcingReducesPeakTailLatency) {
  // Figure 10's headline: outsourcing halves p99 at peak.
  auto wl = peak_workload();
  auto control = small_fleet(ls::OutsourcePolicy::kControl);
  auto dedicated = small_fleet(ls::OutsourcePolicy::kToDedicated);

  auto mc = ls::simulate_fleet(control, wl, 0.25);
  auto md = ls::simulate_fleet(dedicated, wl, 0.25);
  ASSERT_GT(mc.latency_at_peak.count(), 100u);
  ASSERT_GT(md.latency_at_peak.count(), 100u);
  EXPECT_LT(md.latency_at_peak.percentile(99),
            mc.latency_at_peak.percentile(99) * 0.75);
  EXPECT_GT(md.outsourced, 0u);
  EXPECT_EQ(mc.outsourced, 0u);
}

TEST(Fleet, ToSelfBetterThanControlWorseOrEqualToDedicatedAtPeak) {
  auto wl = peak_workload();
  auto control =
      ls::simulate_fleet(small_fleet(ls::OutsourcePolicy::kControl), wl, 0.25);
  auto toself =
      ls::simulate_fleet(small_fleet(ls::OutsourcePolicy::kToSelf), wl, 0.25);
  auto dedicated = ls::simulate_fleet(
      small_fleet(ls::OutsourcePolicy::kToDedicated), wl, 0.25);

  double c99 = control.latency_at_peak.percentile(99);
  double s99 = toself.latency_at_peak.percentile(99);
  double d99 = dedicated.latency_at_peak.percentile(99);
  EXPECT_LT(s99, c99);
  EXPECT_LE(d99, s99 * 1.15) << "dedicated wins (or ties) at peak, §5.5.1";
}

TEST(Fleet, ControlShowsOversubscriptionInConcurrencySeries) {
  // Figure 9: the control fleet routinely sees double-digit concurrent
  // conversions on some machine, far above the 2 that saturate it.
  auto wl = peak_workload();
  auto m =
      ls::simulate_fleet(small_fleet(ls::OutsourcePolicy::kControl), wl, 0.25);
  double max_p99 = 0;
  for (double v : m.concurrency_p99_series) max_p99 = std::max(max_p99, v);
  EXPECT_GT(max_p99, 6.0);

  auto md = ls::simulate_fleet(small_fleet(ls::OutsourcePolicy::kToDedicated),
                               wl, 0.25);
  double max_p99_d = 0;
  for (std::size_t i = 0; i < md.concurrency_p99_series.size(); ++i) {
    max_p99_d = std::max(max_p99_d, md.concurrency_p99_series[i]);
  }
  EXPECT_LT(max_p99_d, max_p99);
}

TEST(Fleet, DeterministicUnderSeed) {
  auto wl = peak_workload();
  auto cfg = small_fleet(ls::OutsourcePolicy::kToSelf);
  auto a = ls::simulate_fleet(cfg, wl, 0.1);
  auto b = ls::simulate_fleet(cfg, wl, 0.1);
  EXPECT_EQ(a.conversions, b.conversions);
  EXPECT_EQ(a.concurrency_p99_series, b.concurrency_p99_series);
}

TEST(Backfill, PowerStepsDownDuringOutage) {
  ls::BackfillConfig cfg;
  auto series = ls::simulate_backfill_day(cfg, 10.0, 14.0);
  double active_power = 0, outage_power = 0;
  int na = 0, no = 0;
  for (const auto& s : series) {
    if (s.hour > 2 && s.hour < 9) {
      active_power += s.power_kw;
      ++na;
    }
    if (s.hour > 11 && s.hour < 13.5) {
      outage_power += s.power_kw;
      ++no;
    }
  }
  active_power /= na;
  outage_power /= no;
  EXPECT_NEAR(active_power - outage_power, cfg.backfill_power_kw, 10.0)
      << "Figure 11: the 121 kW step";
  EXPECT_NEAR(active_power, cfg.cluster_power_kw, 12.0);
}

TEST(Backfill, CostModelMatchesPaperConstants) {
  // §5.6.1's arithmetic, which we must reproduce from first principles.
  auto m = ls::compute_cost_model(ls::BackfillConfig{});
  EXPECT_NEAR(m.conversions_per_kwh, 72300, 2000);
  EXPECT_NEAR(m.gib_saved_per_kwh, 24.0, 2.0);
  EXPECT_NEAR(m.breakeven_kwh_price_depowered_disk, 0.58, 0.06);
  EXPECT_NEAR(m.images_per_server_year / 1e6, 181.5, 6.0);
  EXPECT_NEAR(m.tib_saved_per_server_year, 58.8, 3.0);
  EXPECT_NEAR(m.s3_ia_cost_per_server_year_usd, 9031, 500);
}

TEST(Rollout, RatioClimbsLikeFigure13) {
  ls::RolloutConfig cfg;
  auto series = ls::simulate_rollout(cfg);
  ASSERT_GT(series.size(), 60u);
  EXPECT_LT(series[3].ratio, 0.5) << "early: hardly any Lepton decodes";
  EXPECT_GT(series.back().ratio, 1.2) << "late: approaching steady state";
  // Monotonic-ish climb.
  EXPECT_GT(series[60].ratio, series[10].ratio);
}

TEST(Rollout, TailLatencyGrowsLikeFigure14) {
  ls::RolloutConfig cfg;
  auto series = ls::simulate_rollout(cfg);
  double early_p99 = series[5].p99;
  double late_p99 = series.back().p99;
  EXPECT_GT(late_p99, early_p99 * 4)
      << "p99 reaches multi-second territory before outsourcing";
  EXPECT_LT(series.back().p50, 0.25)
      << "median stays modest even as the tail blows up";
}

TEST(Thp, DisablingThpFixesTailNotMedian) {
  ls::ThpConfig cfg;
  auto series = ls::simulate_thp(cfg);
  double p99_on = 0, p99_off = 0, p50_on = 0, p50_off = 0;
  int on = 0, off = 0;
  for (const auto& s : series) {
    if (s.hour < cfg.disable_at_hour) {
      p99_on += s.p99;
      p50_on += s.p50;
      ++on;
    } else {
      p99_off += s.p99;
      p50_off += s.p50;
      ++off;
    }
  }
  p99_on /= on;
  p99_off /= off;
  p50_on /= on;
  p50_off /= off;
  EXPECT_GT(p99_on, p99_off * 3) << "Figure 12: the p99 collapse";
  EXPECT_NEAR(p50_on, p50_off, 0.01) << "median barely moves (§6.3)";
}

// ---------------------------------------------------------------------------
// DurableStore: the crash-safe persistence layer (storage/durable_store.h).
//
// The recovery matrix drives every failpoint site on the commit path in
// turn, fails or "crashes" there (abandoning the handle without cleanup,
// exactly what kill-9 leaves behind), reopens, and asserts the durability
// invariant: acknowledged => readable byte-identical; unacknowledged =>
// absent, quarantined, or fully intact — never half-served.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "corpus/corpus.h"
#include "storage/durable_store.h"
#include "util/failpoint.h"
#include "util/fileio.h"
#include "util/md5.h"
#include "util/rng.h"

namespace {

using lepton::util::ExitCode;

struct FailpointGuard {
  ~FailpointGuard() { lepton::util::failpoint::disarm(); }
  bool arm(const std::string& spec) {
    std::string err;
    bool ok = lepton::util::failpoint::arm(spec, &err);
    EXPECT_TRUE(ok) << err;
    return ok;
  }
};

std::string fresh_root(const char* tag) {
  static int n = 0;
  std::string root = std::string(::testing::TempDir()) + "durable_" + tag +
                     "_" + std::to_string(::getpid()) + "_" +
                     std::to_string(n++);
  return root;
}

std::vector<std::uint8_t> test_jpeg(std::uint64_t seed) {
  return lepton::corpus::jpeg_of_size(20 << 10, seed);
}

std::unique_ptr<ls::DurableStore> open_store(const std::string& root) {
  ls::DurableStoreConfig cfg;
  cfg.root = root;
  std::string err;
  std::unique_ptr<ls::DurableStore> s =
      ls::DurableStore::open(std::move(cfg), &err);
  EXPECT_NE(s, nullptr) << err;
  return s;
}

TEST(DurableStore, PutGetRoundTripAndPersistsAcrossReopen) {
  std::string root = fresh_root("roundtrip");
  std::vector<std::uint8_t> jpeg = test_jpeg(1);
  {
    auto s = open_store(root);
    ls::DurablePutStats ps = s->put("photos/a.jpg", {jpeg.data(), jpeg.size()});
    ASSERT_TRUE(ps.acknowledged);
    EXPECT_EQ(ps.code, ExitCode::kSuccess);
    lepton::Result r;
    ASSERT_TRUE(s->get("photos/a.jpg", &r));
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.data, jpeg);
    EXPECT_FALSE(s->get("photos/unknown.jpg", &r));
  }
  auto s = open_store(root);
  EXPECT_EQ(s->stats().recovery.keys_live, 1u);
  EXPECT_EQ(s->stats().recovery.keys_lost, 0u);
  lepton::Result r;
  ASSERT_TRUE(s->get("photos/a.jpg", &r));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, jpeg);
}

TEST(DurableStore, DedupsIdenticalContentAcrossKeys) {
  auto s = open_store(fresh_root("dedup"));
  std::vector<std::uint8_t> jpeg = test_jpeg(2);
  ASSERT_TRUE(s->put("a", {jpeg.data(), jpeg.size()}).acknowledged);
  ls::DurablePutStats second = s->put("b", {jpeg.data(), jpeg.size()});
  ASSERT_TRUE(second.acknowledged);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(s->stats().puts_deduplicated, 1u);
  lepton::Result ra, rb;
  ASSERT_TRUE(s->get("a", &ra));
  ASSERT_TRUE(s->get("b", &rb));
  EXPECT_EQ(ra.data, jpeg);
  EXPECT_EQ(rb.data, jpeg);
}

TEST(DurableStore, KeysWithSpacesAndControlBytesSurviveTheJournal) {
  std::string root = fresh_root("escape");
  std::string key = "dir with spaces/a%b\tc";
  std::vector<std::uint8_t> jpeg = test_jpeg(3);
  {
    auto s = open_store(root);
    ASSERT_TRUE(s->put(key, {jpeg.data(), jpeg.size()}).acknowledged);
  }
  auto s = open_store(root);
  lepton::Result r;
  ASSERT_TRUE(s->get(key, &r));
  EXPECT_EQ(r.data, jpeg);
}

// The recovery matrix proper. For each site: arm a once-firing failure,
// put (must fail with a first-class disk code, never kImpossible), then
// reopen and check nothing is half-served and prior data is untouched.
TEST(DurableStore, RecoveryMatrixFailedCommitNeverHalfServes) {
  struct Case {
    const char* spec;
    bool torn;  // expect bytes on disk that recovery must quarantine
  };
  const Case kCases[] = {
      {"fs.open=err:EIO@once", false},
      {"fs.write=err:ENOSPC@once", false},
      // Torn write + failing unlink: the partial temp stays on disk and
      // recovery must quarantine it with a reason, not delete or serve it.
      {"seed=9;fs.write=short@once;fs.unlink=err:EIO", true},
      {"fs.fsync=err:EIO@once", false},
      {"fs.rename=err:ENOSPC@once", false},
  };
  int idx = 0;
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.spec);
    std::string root = fresh_root(("matrix" + std::to_string(idx)).c_str());
    std::vector<std::uint8_t> prior = test_jpeg(10);
    std::vector<std::uint8_t> doomed = test_jpeg(11 + idx);  // unique content
    ++idx;
    {
      auto s = open_store(root);
      ASSERT_TRUE(s->put("prior", {prior.data(), prior.size()}).acknowledged);
      FailpointGuard fp;
      ASSERT_TRUE(fp.arm(c.spec));
      ls::DurablePutStats ps = s->put("doomed", {doomed.data(), doomed.size()});
      EXPECT_FALSE(ps.acknowledged);
      EXPECT_TRUE(ps.code == ExitCode::kDiskFull || ps.code == ExitCode::kIoError)
          << "failed commit classified " << static_cast<int>(ps.code);
      ls::DurableStoreStats st = s->stats();
      EXPECT_EQ(st.puts_failed_disk_full + st.puts_failed_io_error, 1u);
      // Unacknowledged and the handle stays usable: the key must not be
      // served, and prior data still reads back.
      lepton::Result r;
      EXPECT_FALSE(s->get("doomed", &r));
      ASSERT_TRUE(s->get("prior", &r));
      EXPECT_EQ(r.data, prior);
    }
    // Reopen: prior survives; "doomed" is absent or quarantined, never
    // half-served; no acknowledged key was lost.
    auto s = open_store(root);
    ls::RecoveryReport rep = s->stats().recovery;
    EXPECT_EQ(rep.keys_lost, 0u);
    lepton::Result r;
    ASSERT_TRUE(s->get("prior", &r));
    EXPECT_EQ(r.data, prior);
    EXPECT_FALSE(s->get("doomed", &r));
    if (c.torn) {
      EXPECT_GE(rep.temps_quarantined, 1u) << "torn temp not quarantined";
      std::ifstream reasons(root + "/quarantine/reasons.log");
      std::string text((std::istreambuf_iterator<char>(reasons)),
                       std::istreambuf_iterator<char>());
      EXPECT_NE(text.find("torn/partial commit"), std::string::npos) << text;
    }
  }
}

// Crash between rename and journal append: simulated by killing the append
// (err) so the object file is published but never journaled. Recovery must
// quarantine it as an orphan — bytes moved, not deleted.
TEST(DurableStore, OrphanedObjectIsQuarantinedNotDeleted) {
  std::string root = fresh_root("orphan");
  std::vector<std::uint8_t> doomed = test_jpeg(20);
  std::string payload_md5;
  {
    auto s = open_store(root);
    FailpointGuard fp;
    // Object commit path untouched; only the journal append (the write
    // AFTER rename) fails.
    ASSERT_TRUE(fp.arm("fs.write=err:EIO@every2"));
    ls::DurablePutStats ps = s->put("doomed", {doomed.data(), doomed.size()});
    EXPECT_FALSE(ps.acknowledged);
    EXPECT_EQ(ps.code, ExitCode::kIoError);
    payload_md5 = ps.md5_hex;  // the object's content address
  }
  auto s = open_store(root);
  ls::RecoveryReport rep = s->stats().recovery;
  EXPECT_EQ(rep.orphans_quarantined, 1u);
  EXPECT_EQ(rep.keys_lost, 0u);
  EXPECT_EQ(rep.keys_live, 0u);
  // The bytes are in quarantine, not gone.
  bool found = false;
  for (const std::string& f :
       lepton::util::fileio::list_files(root + "/quarantine")) {
    if (f.rfind(payload_md5, 0) == 0) found = true;
  }
  EXPECT_TRUE(found) << "orphaned payload bytes not preserved in quarantine";
}

// A torn journal tail (kill-9 mid-append) drops only the torn record:
// earlier records still parse, the torn record's object becomes a
// quarantined orphan, nothing is half-served.
TEST(DurableStore, TornJournalTailDropsOnlyTheTornRecord) {
  std::string root = fresh_root("torntail");
  std::vector<std::uint8_t> kept = test_jpeg(21), torn = test_jpeg(30);
  {
    auto s = open_store(root);
    ASSERT_TRUE(s->put("kept", {kept.data(), kept.size()}).acknowledged);
    ASSERT_TRUE(s->put("torn", {torn.data(), torn.size()}).acknowledged);
  }
  {
    // Tear the journal the way a crash mid-append would: cut into the last
    // record ("torn" sorts after "kept" in the compacted journal).
    std::string jpath = root + "/journal";
    std::vector<std::uint8_t> j;
    ASSERT_TRUE(lepton::util::fileio::read_file(jpath, &j));
    ASSERT_GT(j.size(), 10u);
    std::ofstream out(jpath, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(j.data()),
              static_cast<std::streamsize>(j.size() - 10));
  }
  auto s = open_store(root);
  ls::RecoveryReport rep = s->stats().recovery;
  EXPECT_EQ(rep.journal_torn_tail, 1u);
  EXPECT_EQ(rep.keys_live, 1u);
  EXPECT_EQ(rep.orphans_quarantined, 1u);
  EXPECT_EQ(rep.keys_lost, 0u);
  lepton::Result r;
  ASSERT_TRUE(s->get("kept", &r));
  EXPECT_EQ(r.data, kept);
  EXPECT_FALSE(s->get("torn", &r));
}

// Satellite 2's no-litter rule: a failed put must not leave temp files in
// the fanout (the startup sweep is the backstop when unlink itself dies).
TEST(DurableStore, FailedPutLeavesNoTempLitter) {
  std::string root = fresh_root("litter");
  auto s = open_store(root);
  std::vector<std::uint8_t> jpeg = test_jpeg(22);
  FailpointGuard fp;
  ASSERT_TRUE(fp.arm("fs.rename=err:ENOSPC@once"));
  ls::DurablePutStats ps = s->put("doomed", {jpeg.data(), jpeg.size()});
  EXPECT_FALSE(ps.acknowledged);
  EXPECT_EQ(ps.code, ExitCode::kDiskFull);
  EXPECT_EQ(s->stats().puts_failed_disk_full, 1u);
  for (const std::string& fan :
       lepton::util::fileio::list_dirs(root + "/objects")) {
    for (const std::string& f :
         lepton::util::fileio::list_files(root + "/objects/" + fan)) {
      EXPECT_TRUE(f.rfind(".tmp.", 0) != 0) << "temp litter: " << f;
    }
  }
}

// Scrubber detection: flip one bit in a stored payload — the scrub pass
// must find it, quarantine the object, and stop serving the key.
TEST(DurableStore, ScrubberDetectsPayloadBitFlip) {
  std::string root = fresh_root("scrubflip");
  std::vector<std::uint8_t> jpeg = test_jpeg(23);
  auto s = open_store(root);
  ls::DurablePutStats ps = s->put("victim", {jpeg.data(), jpeg.size()});
  ASSERT_TRUE(ps.acknowledged);
  {
    std::string path = root + "/objects/" + ps.md5_hex.substr(0, 2) + "/" +
                       ps.md5_hex;
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(lepton::util::fileio::read_file(path, &bytes));
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  s->scrub_pass_now();
  ls::DurableStoreStats st = s->stats();
  EXPECT_EQ(st.scrub_corrupt_found, 1u);
  EXPECT_GE(st.scrub_objects_checked, 1u);
  lepton::Result r;
  EXPECT_FALSE(s->get("victim", &r)) << "corrupt key still served";
  std::ifstream reasons(root + "/quarantine/reasons.log");
  std::string text((std::istreambuf_iterator<char>(reasons)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("md5 mismatch (scrub)"), std::string::npos) << text;
}

// Scrubber detection: flip one bit in a journal record — the per-record
// checksum must reject it.
TEST(DurableStore, ScrubberDetectsJournalBitFlip) {
  std::string root = fresh_root("scrubjournal");
  std::vector<std::uint8_t> jpeg = test_jpeg(24);
  auto s = open_store(root);
  ASSERT_TRUE(s->put("victim", {jpeg.data(), jpeg.size()}).acknowledged);
  {
    std::string jpath = root + "/journal";
    std::vector<std::uint8_t> j;
    ASSERT_TRUE(lepton::util::fileio::read_file(jpath, &j));
    j[4] ^= 0x01;  // inside the escaped key field
    std::ofstream out(jpath, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(j.data()),
              static_cast<std::streamsize>(j.size()));
  }
  s->scrub_pass_now();
  EXPECT_EQ(s->stats().scrub_journal_bad_records, 1u);
}

// The background thread end-to-end: start, let it run a pass, stop.
TEST(DurableStore, BackgroundScrubberRunsPassesAndStopsCleanly) {
  auto s = open_store(fresh_root("scrubthread"));
  std::vector<std::uint8_t> jpeg = test_jpeg(25);
  ASSERT_TRUE(s->put("a", {jpeg.data(), jpeg.size()}).acknowledged);
  ls::ScrubberConfig sc;
  sc.rate_limit_bytes_per_s = 0;  // unthrottled for the test
  sc.pass_interval = std::chrono::milliseconds(1);
  s->start_scrubber(sc);
  for (int i = 0; i < 200 && s->stats().scrub_passes == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  s->stop_scrubber();
  ls::DurableStoreStats st = s->stats();
  EXPECT_GE(st.scrub_passes, 1u);
  EXPECT_GE(st.scrub_objects_checked, 1u);
  EXPECT_EQ(st.scrub_corrupt_found, 0u);
}

// A corrupt object discovered on the serving path (not just by scrub) is
// quarantined immediately and never returned.
TEST(DurableStore, GetQuarantinesCorruptObjectInsteadOfServingIt) {
  std::string root = fresh_root("getcorrupt");
  std::vector<std::uint8_t> jpeg = test_jpeg(26);
  auto s = open_store(root);
  ls::DurablePutStats ps = s->put("victim", {jpeg.data(), jpeg.size()});
  ASSERT_TRUE(ps.acknowledged);
  {
    std::string path = root + "/objects/" + ps.md5_hex.substr(0, 2) + "/" +
                       ps.md5_hex;
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(lepton::util::fileio::read_file(path, &bytes));
    bytes[0] ^= 0xff;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  lepton::Result r;
  ASSERT_TRUE(s->get("victim", &r));  // key known...
  EXPECT_FALSE(r.ok());               // ...but never served corrupt
  EXPECT_EQ(r.code, ExitCode::kIoError);
  EXPECT_TRUE(r.data.empty());
  EXPECT_EQ(s->stats().get_corrupt_quarantined, 1u);
  EXPECT_FALSE(s->contains("victim"));
  // fsck sees the journal record with its object quarantined: acknowledged
  // data is gone — loss, nonzero-exit material.
  std::string err;
  ls::FsckReport rep = ls::DurableStore::fsck(root, &err);
  EXPECT_TRUE(err.empty());
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.lost, 1u);
}

// fsck on a healthy store reports clean; on a store with an injected torn
// object it must quarantine and stay ok(); data loss flips ok() to false.
TEST(DurableStore, FsckClassifiesHealthyTornAndLost) {
  std::string root = fresh_root("fsck");
  std::vector<std::uint8_t> a = test_jpeg(27), b = test_jpeg(28);
  std::string md5_b;
  {
    auto s = open_store(root);
    ASSERT_TRUE(s->put("a", {a.data(), a.size()}).acknowledged);
    ls::DurablePutStats ps = s->put("b", {b.data(), b.size()});
    ASSERT_TRUE(ps.acknowledged);
    md5_b = ps.md5_hex;
  }
  std::string err;
  ls::FsckReport healthy = ls::DurableStore::fsck(root, &err);
  EXPECT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.healthy, 2u);
  EXPECT_EQ(healthy.keys, 2u);
  // Inject a torn temp: quarantined, still ok().
  {
    std::ofstream torn(root + "/objects/" + md5_b.substr(0, 2) +
                           "/.tmp.deadbeef.1.1",
                       std::ios::binary);
    torn << "partial";
  }
  ls::FsckReport swept = ls::DurableStore::fsck(root, &err);
  EXPECT_TRUE(swept.ok());
  EXPECT_EQ(swept.quarantined, 1u);
  // Corrupt an acknowledged object: loss, not ok().
  {
    std::string path = root + "/objects/" + md5_b.substr(0, 2) + "/" + md5_b;
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(lepton::util::fileio::read_file(path, &bytes));
    bytes[1] ^= 0x10;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ls::FsckReport lost = ls::DurableStore::fsck(root, &err);
  EXPECT_FALSE(lost.ok());
  EXPECT_EQ(lost.lost, 1u);
  EXPECT_EQ(lost.healthy, 1u);  // "a" is still fine
}

// A failed open/read on the serving path is NOT corruption: the bytes on
// disk may be healthy (fd exhaustion, transient EIO), so the object must
// not be quarantined and the key must stay retryable. Simulated by
// swapping the object file for a directory (open succeeds, read fails),
// then swapping it back.
TEST(DurableStore, GetReadFailureIsRetryableNotQuarantined) {
  std::string root = fresh_root("getreaderr");
  std::vector<std::uint8_t> jpeg = test_jpeg(29);
  auto s = open_store(root);
  ls::DurablePutStats ps = s->put("victim", {jpeg.data(), jpeg.size()});
  ASSERT_TRUE(ps.acknowledged);
  std::string path = root + "/objects/" + ps.md5_hex.substr(0, 2) + "/" +
                     ps.md5_hex;
  std::string aside = path + ".aside";
  ASSERT_EQ(std::rename(path.c_str(), aside.c_str()), 0);
  ASSERT_TRUE(lepton::util::fileio::make_dirs(path));

  lepton::Result r;
  ASSERT_TRUE(s->get("victim", &r));  // key known...
  EXPECT_FALSE(r.ok());               // ...but unreadable right now
  EXPECT_EQ(r.code, ExitCode::kIoError);
  ls::DurableStoreStats st = s->stats();
  EXPECT_EQ(st.get_read_errors, 1u);
  EXPECT_EQ(st.get_corrupt_quarantined, 0u);  // nothing quarantined
  EXPECT_TRUE(s->contains("victim"));         // key not dropped

  // Once the transient condition clears, the same key serves again.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  ASSERT_EQ(std::rename(aside.c_str(), path.c_str()), 0);
  ASSERT_TRUE(s->get("victim", &r));
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.data, jpeg);
}

// Same rule for the scrubber: an unreadable object is counted, not
// quarantined — only a verified mismatch of successfully-read bytes may
// drop keys.
TEST(DurableStore, ScrubReadFailureIsNotCorruption) {
  std::string root = fresh_root("scrubreaderr");
  std::vector<std::uint8_t> jpeg = test_jpeg(30);
  auto s = open_store(root);
  ls::DurablePutStats ps = s->put("victim", {jpeg.data(), jpeg.size()});
  ASSERT_TRUE(ps.acknowledged);
  std::string path = root + "/objects/" + ps.md5_hex.substr(0, 2) + "/" +
                     ps.md5_hex;
  std::string aside = path + ".aside";
  ASSERT_EQ(std::rename(path.c_str(), aside.c_str()), 0);
  ASSERT_TRUE(lepton::util::fileio::make_dirs(path));

  s->scrub_pass_now();
  ls::DurableStoreStats st = s->stats();
  EXPECT_EQ(st.scrub_read_errors, 1u);
  EXPECT_EQ(st.scrub_corrupt_found, 0u);
  EXPECT_TRUE(s->contains("victim"));

  ASSERT_EQ(std::remove(path.c_str()), 0);
  ASSERT_EQ(std::rename(aside.c_str(), path.c_str()), 0);
  s->scrub_pass_now();
  st = s->stats();
  EXPECT_EQ(st.scrub_read_errors, 1u);  // no new error
  EXPECT_EQ(st.scrub_corrupt_found, 0u);
  lepton::Result r;
  ASSERT_TRUE(s->get("victim", &r));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, jpeg);
}

// The quarantine sequence restarts at 0 on every open; a second run that
// quarantines the same object name must probe past the name the first run
// used instead of rename()-clobbering its preserved bytes.
TEST(DurableStore, QuarantineNamesNeverClobberAcrossReopens) {
  std::string root = fresh_root("quarseq");
  std::vector<std::uint8_t> jpeg = test_jpeg(31);
  std::string md5;
  auto corrupt_and_get = [&](ls::DurableStore* s, const char* key,
                             std::uint8_t flip) {
    ls::DurablePutStats ps = s->put(key, {jpeg.data(), jpeg.size()});
    ASSERT_TRUE(ps.acknowledged);
    md5 = ps.md5_hex;
    std::string path = root + "/objects/" + md5.substr(0, 2) + "/" + md5;
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(lepton::util::fileio::read_file(path, &bytes));
    bytes[0] ^= flip;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    lepton::Result r;
    ASSERT_TRUE(s->get(key, &r));  // quarantines
    EXPECT_FALSE(r.ok());
  };
  {
    auto s = open_store(root);
    corrupt_and_get(s.get(), "k1", 0x01);
  }
  std::string q0 = root + "/quarantine/" + md5 + ".0";
  std::vector<std::uint8_t> first_bytes;
  ASSERT_TRUE(lepton::util::fileio::read_file(q0, &first_bytes));
  {
    // Fresh open: quarantine_seq_ is 0 again. Re-put the same content
    // (same md5, same quarantine name candidate) and corrupt differently.
    auto s = open_store(root);
    corrupt_and_get(s.get(), "k2", 0x02);
  }
  // Both generations preserved, first one byte-for-byte untouched.
  std::vector<std::uint8_t> q0_after, q1_bytes;
  ASSERT_TRUE(lepton::util::fileio::read_file(q0, &q0_after));
  EXPECT_EQ(q0_after, first_bytes);
  ASSERT_TRUE(
      lepton::util::fileio::read_file(root + "/quarantine/" + md5 + ".1",
                                      &q1_bytes));
  EXPECT_NE(q1_bytes, first_bytes);
}

// A failed group-commit fsync must be surfaced, keep the batch pending,
// and be retryable — not silently reported as synced.
TEST(DurableStore, SyncSurfacesFsyncFailureAndRetries) {
  ls::DurableStoreConfig cfg;
  cfg.root = fresh_root("syncfail");
  cfg.fsync = ls::FsyncMode::kBatch;
  cfg.batch_puts = 100;  // never auto-syncs within this test
  std::string err;
  auto s = ls::DurableStore::open(std::move(cfg), &err);
  ASSERT_NE(s, nullptr) << err;
  std::vector<std::uint8_t> jpeg = test_jpeg(32);
  ASSERT_TRUE(s->put("a", {jpeg.data(), jpeg.size()}).acknowledged);
  FailpointGuard fp;
  ASSERT_TRUE(fp.arm("fs.fsync=err:EIO@once"));
  EXPECT_FALSE(s->sync());  // injected barrier failure is reported
  EXPECT_TRUE(s->sync());   // records stayed pending; the retry lands them
  EXPECT_TRUE(s->sync());   // and a drained journal is a clean no-op
}

// PR 9 shipped the scrubber without a test that races it against the
// serving path. Readers hammer get() on the same keys the scrubber is
// re-verifying (tiny pass interval, decode spot-check on every Lepton
// object, no rate limit) while a writer keeps adding keys; every read must
// come back byte-identical and no counter may tear. CI runs this suite
// under TSan — the interleaving itself is the assertion there.
TEST(DurableStore, GetRacesBackgroundScrubberCleanly) {
  auto s = open_store(fresh_root("scrubrace"));
  const int kKeys = 6;
  std::vector<std::vector<std::uint8_t>> content;
  for (int k = 0; k < kKeys; ++k) {
    content.push_back(test_jpeg(40 + static_cast<std::uint64_t>(k)));
    ASSERT_TRUE(s->put("race" + std::to_string(k),
                       {content[k].data(), content[k].size()})
                    .acknowledged);
  }
  ls::ScrubberConfig sc;
  sc.rate_limit_bytes_per_s = 0;
  sc.pass_interval = std::chrono::milliseconds(1);
  sc.decode_check_every = 1;
  s->start_scrubber(sc);

  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 120; ++i) {
        int k = i % kKeys;
        lepton::Result r;
        if (!s->get("race" + std::to_string(k), &r) || !r.ok() ||
            r.data != content[k]) {
          bad.fetch_add(1);
        }
      }
    });
  }
  // Concurrent puts: the scrubber snapshots the index while it mutates.
  for (int k = kKeys; k < kKeys + 4; ++k) {
    std::vector<std::uint8_t> jpeg =
        test_jpeg(40 + static_cast<std::uint64_t>(k));
    ASSERT_TRUE(s->put("race" + std::to_string(k), {jpeg.data(), jpeg.size()})
                    .acknowledged);
  }
  for (auto& t : readers) t.join();
  // Let at least one full pass overlap the reads before stopping.
  for (int i = 0; i < 200 && s->stats().scrub_passes < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  s->stop_scrubber();
  EXPECT_EQ(bad.load(), 0u) << "a read raced the scrubber into wrong bytes";
  ls::DurableStoreStats st = s->stats();
  EXPECT_GE(st.scrub_passes, 1u);
  EXPECT_GT(st.scrub_decode_checks, 0u);
  EXPECT_EQ(st.scrub_corrupt_found, 0u);
  EXPECT_EQ(st.get_corrupt_quarantined, 0u);
}

// A dedup hit may ride on a publish whose directory barrier never
// completed (a prior put that failed between rename and dir-fsync), so the
// dedup path must re-issue the barrier — and fail the put if it fails —
// before journaling an acknowledgement against that object.
TEST(DurableStore, DedupPutFailsWhenDirectoryBarrierFails) {
  auto s = open_store(fresh_root("dedupbarrier"));
  std::vector<std::uint8_t> jpeg = test_jpeg(33);
  ASSERT_TRUE(s->put("a", {jpeg.data(), jpeg.size()}).acknowledged);
  FailpointGuard fp;
  ASSERT_TRUE(fp.arm("fs.fsync=err:EIO@once"));
  ls::DurablePutStats ps = s->put("b", {jpeg.data(), jpeg.size()});
  EXPECT_FALSE(ps.acknowledged);
  EXPECT_EQ(ps.code, ExitCode::kIoError);
  EXPECT_FALSE(s->contains("b"));
  // Retryable: with the fault cleared the same put dedups and acks.
  ps = s->put("b", {jpeg.data(), jpeg.size()});
  EXPECT_TRUE(ps.acknowledged);
  EXPECT_TRUE(ps.deduplicated);
}

// A store damaged the same way every time it is built: 72 passthrough
// objects of 1-128 KiB spread over the md5 fanout (two of them under a
// second key), then one flipped byte in each of three objects, one
// truncated object, a torn temp and an orphan. The operations and their
// order are fixed, so two builds list their directories identically.
struct DamagedStore {
  std::map<std::string, std::vector<std::uint8_t>> kept;  // key -> bytes
  std::set<std::string> lost_keys;
  std::set<std::string> corrupt;  // object names, flipped or truncated
  std::string temp_name;
  std::string orphan_name;
  std::string truncated_name;
  std::size_t truncated_len = 0;
  std::size_t objects = 0;
};

void build_damaged_store(const std::string& root, DamagedStore* d) {
  constexpr int kObjects = 72;
  lepton::util::Rng rng(1504);
  std::vector<std::vector<std::uint8_t>> bytes(kObjects);
  std::vector<std::string> md5(kObjects);
  {
    ls::DurableStoreConfig cfg;
    cfg.root = root;
    cfg.fsync = ls::FsyncMode::kNone;
    std::string err;
    auto s = ls::DurableStore::open(std::move(cfg), &err);
    ASSERT_NE(s, nullptr) << err;
    for (int i = 0; i < kObjects; ++i) {
      bytes[i].resize(1024 + rng.below(127 << 10));
      for (auto& b : bytes[i]) b = static_cast<std::uint8_t>(rng.next());
      lepton::StoredObject obj =
          s->codec().put_passthrough({bytes[i].data(), bytes[i].size()});
      md5[i] = obj.md5_hex;
      std::string key = "k" + std::to_string(i);
      ASSERT_TRUE(s->put_object(key, obj).acknowledged);
      d->kept[key] = bytes[i];
      if (i == 5 || i == 6) {
        ASSERT_TRUE(s->put_object("dup" + std::to_string(i), obj).acknowledged);
        d->kept["dup" + std::to_string(i)] = bytes[i];
      }
    }
  }
  d->objects = kObjects;
  auto path_of = [&](int i) {
    return root + "/objects/" + md5[i].substr(0, 2) + "/" + md5[i];
  };
  auto lose = [&](int i) {
    d->corrupt.insert(md5[i]);
    for (const std::string& key :
         {"k" + std::to_string(i), "dup" + std::to_string(i)}) {
      if (d->kept.erase(key) != 0) d->lost_keys.insert(key);
    }
  };
  for (int i : {5, 17, 40}) {
    std::vector<std::uint8_t> b;
    ASSERT_TRUE(lepton::util::fileio::read_file(path_of(i), &b));
    b[b.size() / 3] ^= 0x20;
    std::ofstream out(path_of(i), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
    lose(i);
  }
  d->truncated_name = md5[23];
  d->truncated_len = bytes[23].size() / 2;
  ASSERT_EQ(::truncate(path_of(23).c_str(),
                       static_cast<off_t>(d->truncated_len)),
            0);
  lose(23);
  d->temp_name = ".tmp." + md5[0] + ".7.7";
  {
    std::ofstream torn(root + "/objects/" + md5[0].substr(0, 2) + "/" +
                           d->temp_name,
                       std::ios::binary);
    torn << "partial";
  }
  std::vector<std::uint8_t> stray(4000);
  for (auto& b : stray) b = static_cast<std::uint8_t>(rng.next());
  d->orphan_name = lepton::util::Md5::hex_digest({stray.data(), stray.size()});
  std::string orphan_dir = root + "/objects/" + d->orphan_name.substr(0, 2);
  ASSERT_TRUE(lepton::util::fileio::make_dirs(orphan_dir));
  std::ofstream out(orphan_dir + "/" + d->orphan_name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(stray.data()),
            static_cast<std::streamsize>(stray.size()));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> sorted_files(const std::string& dir) {
  std::vector<std::string> v = lepton::util::fileio::list_files(dir);
  std::sort(v.begin(), v.end());
  return v;
}

// Recovery verifies objects on every core, largest first, but must act in
// sweep order: the quarantine names (<name>.<seq>) and reasons.log lines
// are those a one-thread sweep in directory-listing order writes, the
// report counts are exact, every surviving key reads back byte-identical,
// and an identically damaged copy recovers to the same names.
TEST(DurableStore, ParallelVerifyRecoversDamagedStoreInSweepOrder) {
  std::string root = fresh_root("damaged");
  DamagedStore d;
  ASSERT_NO_FATAL_FAILURE(build_damaged_store(root, &d));

  std::vector<std::string> want_names;
  std::string want_log;
  std::set<std::string> fans;
  for (const std::string& fan :
       lepton::util::fileio::list_dirs(root + "/objects")) {
    for (const std::string& name :
         lepton::util::fileio::list_files(root + "/objects/" + fan)) {
      fans.insert(fan);
      const char* reason = nullptr;
      if (name == d.temp_name) {
        reason = "torn/partial commit (temp file)";
      } else if (name == d.orphan_name) {
        reason = "orphaned (no valid journal record)";
      } else if (d.corrupt.count(name) != 0) {
        reason = "payload mismatch at recovery (size or md5 vs journal)";
      }
      if (reason == nullptr) continue;
      want_names.push_back(name + "." + std::to_string(want_names.size()));
      want_log += name + " <- objects/" + fan + ": " + reason + "\n";
    }
  }
  ASSERT_EQ(want_names.size(), 6u);
  EXPECT_GE(fans.size(), 40u) << "objects not spread across the fanout";

  auto s = open_store(root);
  ASSERT_NE(s, nullptr);
  ls::RecoveryReport rep = s->stats().recovery;
  EXPECT_EQ(rep.temps_quarantined, 1u);
  EXPECT_EQ(rep.orphans_quarantined, 1u);
  EXPECT_EQ(rep.corrupt_quarantined, 4u);
  EXPECT_EQ(rep.keys_lost, 5u);  // k5 and dup5 share one flipped object
  EXPECT_EQ(rep.objects_live, d.objects - 4);
  EXPECT_EQ(rep.keys_live, d.kept.size());
  EXPECT_EQ(rep.journal_torn_tail, 0u);
  EXPECT_EQ(rep.journal_bad_records, 0u);

  EXPECT_EQ(slurp(root + "/quarantine/reasons.log"), want_log);
  std::vector<std::string> names = want_names;
  names.push_back("reasons.log");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(sorted_files(root + "/quarantine"), names);
  for (const std::string& q : want_names) {
    if (q.rfind(d.truncated_name + ".", 0) != 0) continue;
    std::vector<std::uint8_t> kept_bytes;  // quarantine moves, never deletes
    ASSERT_TRUE(lepton::util::fileio::read_file(root + "/quarantine/" + q,
                                                &kept_bytes));
    EXPECT_EQ(kept_bytes.size(), d.truncated_len);
  }

  for (const auto& [key, bytes] : d.kept) {
    lepton::Result r;
    ASSERT_TRUE(s->get(key, &r)) << key;
    ASSERT_TRUE(r.ok()) << key << ": " << r.message;
    EXPECT_EQ(r.data, bytes) << key;
  }
  for (const std::string& key : d.lost_keys) {
    lepton::Result r;
    EXPECT_FALSE(s->get(key, &r)) << key << " served after its object failed";
  }

  std::string twin = fresh_root("damaged_twin");
  DamagedStore d2;
  ASSERT_NO_FATAL_FAILURE(build_damaged_store(twin, &d2));
  auto s2 = open_store(twin);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(sorted_files(twin + "/quarantine"), names);
  EXPECT_EQ(slurp(twin + "/quarantine/reasons.log"), want_log);
  ls::RecoveryReport rep2 = s2->stats().recovery;
  EXPECT_EQ(rep2.corrupt_quarantined, rep.corrupt_quarantined);
  EXPECT_EQ(rep2.keys_lost, rep.keys_lost);
  EXPECT_EQ(rep2.keys_live, rep.keys_live);
  if (!::testing::Test::HasFailure()) {
    std::filesystem::remove_all(root);
    std::filesystem::remove_all(twin);
  }
}

}  // namespace
