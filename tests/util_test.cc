// Unit tests for ds/util: Status/Result, random, serialization, stats,
// strings, fd ownership, CPU topology, command-line flags.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <new>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "ds/util/alloc.h"
#include "ds/util/cpu_topology.h"
#include "ds/util/fd.h"
#include "ds/util/flags.h"
#include "ds/util/random.h"
#include "ds/util/serialize.h"
#include "ds/util/stats.h"
#include "ds/util/status.h"
#include "ds/util/string_util.h"

namespace ds {
namespace {

// --- Status / Result ---------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "thing");
  EXPECT_EQ(s.ToString(), "Not found: thing");
}

TEST(StatusTest, CopyIsCheapAndEqualValued) {
  Status s = Status::Internal("boom");
  Status t = s;
  EXPECT_EQ(t.code(), StatusCode::kInternal);
  EXPECT_EQ(t.message(), "boom");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  DS_ASSIGN_OR_RETURN(int half, HalveEven(x));
  DS_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  *out = quarter;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseMacros(8, &out).ok());
  EXPECT_EQ(out, 2);
  EXPECT_EQ(UseMacros(6, &out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(UseMacros(5, &out).code(), StatusCode::kInvalidArgument);
}

// --- Random -------------------------------------------------------------

TEST(Pcg32Test, DeterministicForSameSeed) {
  util::Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  util::Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Pcg32Test, BoundedStaysInBounds) {
  util::Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Bounded(17), 17u);
  }
}

TEST(Pcg32Test, UniformIntInclusiveRange) {
  util::Pcg32 rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Pcg32Test, UniformDoubleMeanNearHalf) {
  util::Pcg32 rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Pcg32Test, NormalMeanAndVariance) {
  util::Pcg32 rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Pcg32Test, SampleWithoutReplacementIsDistinctAndInRange) {
  util::Pcg32 rng(13);
  auto s = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(s.size(), 30u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(Pcg32Test, SampleAllIsPermutation) {
  util::Pcg32 rng(13);
  auto s = rng.SampleWithoutReplacement(50, 50);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 50u);
}

TEST(Pcg32Test, ShufflePreservesElements) {
  util::Pcg32 rng(17);
  std::vector<int> v(64);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfTest, UniformWhenSkewZero) {
  util::ZipfDistribution z(10, 0.0);
  for (size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.Pmf(k), 0.1, 1e-12);
}

TEST(ZipfTest, PmfSumsToOneAndDecreases) {
  util::ZipfDistribution z(100, 1.1);
  double sum = 0;
  for (size_t k = 0; k < z.n(); ++k) {
    sum += z.Pmf(k);
    if (k > 0) {
      EXPECT_LE(z.Pmf(k), z.Pmf(k - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, SampleMatchesPmfRoughly) {
  util::Pcg32 rng(23);
  util::ZipfDistribution z(50, 1.0);
  std::vector<int> counts(50, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[z.Sample(&rng)]++;
  // Rank 0 should carry roughly its PMF share.
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, z.Pmf(0), 0.02);
  // And dominate a deep-tail rank.
  EXPECT_GT(counts[0], counts[40]);
}

// --- Serialization -------------------------------------------------------

TEST(SerializeTest, RoundTripPrimitives) {
  util::BinaryWriter w;
  w.WriteU32(7);
  w.WriteI64(-42);
  w.WriteF64(3.25);
  w.WriteBool(true);
  w.WriteString("hello");
  util::BinaryReader r(w.buffer());
  uint32_t a;
  int64_t b;
  double c;
  bool d;
  std::string e;
  ASSERT_TRUE(r.ReadU32(&a).ok());
  ASSERT_TRUE(r.ReadI64(&b).ok());
  ASSERT_TRUE(r.ReadF64(&c).ok());
  ASSERT_TRUE(r.ReadBool(&d).ok());
  ASSERT_TRUE(r.ReadString(&e).ok());
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, -42);
  EXPECT_EQ(c, 3.25);
  EXPECT_TRUE(d);
  EXPECT_EQ(e, "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, RoundTripVectors) {
  util::BinaryWriter w;
  std::vector<float> vf = {1.5f, -2.0f, 0.0f};
  std::vector<std::string> vs = {"a", "", "long string with spaces"};
  w.WritePodVector(vf);
  w.WriteStringVector(vs);
  util::BinaryReader r(w.buffer());
  std::vector<float> rf;
  std::vector<std::string> rs;
  ASSERT_TRUE(r.ReadPodVector(&rf).ok());
  ASSERT_TRUE(r.ReadStringVector(&rs).ok());
  EXPECT_EQ(rf, vf);
  EXPECT_EQ(rs, vs);
}

TEST(SerializeTest, TruncatedInputIsError) {
  util::BinaryWriter w;
  w.WriteU32(1);
  util::BinaryReader r(w.buffer());
  uint64_t v;
  EXPECT_EQ(r.ReadU64(&v).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, TruncatedVectorIsErrorNotCrash) {
  util::BinaryWriter w;
  w.WriteU64(1000000);  // claims 1M doubles, provides none
  util::BinaryReader r(w.buffer());
  std::vector<double> v;
  EXPECT_FALSE(r.ReadPodVector(&v).ok());
}

TEST(SerializeTest, FileRoundTrip) {
  util::BinaryWriter w;
  w.WriteString("persisted");
  std::string path = testing::TempDir() + "/ds_serialize_test.bin";
  ASSERT_TRUE(w.WriteToFile(path).ok());
  auto r = util::BinaryReader::FromFile(path);
  ASSERT_TRUE(r.ok());
  std::string s;
  ASSERT_TRUE(r->ReadString(&s).ok());
  EXPECT_EQ(s, "persisted");
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsError) {
  auto r = util::BinaryReader::FromFile("/nonexistent/nope.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// --- Stats ---------------------------------------------------------------

TEST(StatsTest, QErrorIsSymmetricFactor) {
  EXPECT_DOUBLE_EQ(util::QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(util::QError(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(util::QError(5, 5), 1.0);
}

TEST(StatsTest, QErrorClampsZeroes) {
  EXPECT_DOUBLE_EQ(util::QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(util::QError(0, 50), 50.0);
  EXPECT_DOUBLE_EQ(util::QError(50, 0), 50.0);
}

TEST(StatsTest, QErrorAtLeastOne) {
  util::Pcg32 rng(3);
  for (int i = 0; i < 1000; ++i) {
    double t = rng.UniformDouble(0, 1e6);
    double e = rng.UniformDouble(0, 1e6);
    EXPECT_GE(util::QError(t, e), 1.0);
  }
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(util::Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(util::Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(util::Percentile(v, 50), 2.5);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(util::Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(util::Median({4, 1, 2, 3}), 2.5);
}

TEST(StatsTest, SummaryMatchesDirectComputation) {
  std::vector<double> q;
  for (int i = 1; i <= 100; ++i) q.push_back(i);
  auto s = util::QErrorSummary::FromQErrors(q);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.median, util::Percentile(q, 50));
  EXPECT_DOUBLE_EQ(s.p90, util::Percentile(q, 90));
  EXPECT_DOUBLE_EQ(s.p99, util::Percentile(q, 99));
}

TEST(StatsTest, FormatQMatchesPaperStyle) {
  EXPECT_EQ(util::FormatQ(3.824), "3.82");
  EXPECT_EQ(util::FormatQ(78.44), "78.4");
  EXPECT_EQ(util::FormatQ(1110.2), "1110");
}

TEST(StatsTest, FormatTableAligns) {
  auto s = util::FormatTable({"name", "v"}, {{"a", "1"}, {"bb", "22"}});
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
}

// --- Strings ---------------------------------------------------------------

TEST(StringTest, SplitJoin) {
  auto parts = util::Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(util::Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(util::Join({}, ","), "");
}

TEST(StringTest, TrimAndCase) {
  EXPECT_EQ(util::Trim("  hi \t"), "hi");
  EXPECT_EQ(util::Trim(""), "");
  EXPECT_EQ(util::ToLower("SeLeCt"), "select");
  EXPECT_TRUE(util::EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(util::EqualsIgnoreCase("WHERE", "were"));
  EXPECT_TRUE(util::StartsWith("deep_sketch", "deep"));
  EXPECT_FALSE(util::StartsWith("deep", "deep_sketch"));
}

TEST(StringTest, HumanBytes) {
  EXPECT_EQ(util::HumanBytes(100), "100 B");
  EXPECT_EQ(util::HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(util::HumanBytes(3 * 1024 * 1024), "3.0 MiB");
}

// --- UniqueFd ---------------------------------------------------------------

TEST(UniqueFdTest, DefaultIsInvalid) {
  util::UniqueFd fd;
  EXPECT_FALSE(fd.valid());
  EXPECT_EQ(fd.get(), -1);
  EXPECT_FALSE(static_cast<bool>(fd));
}

TEST(UniqueFdTest, MoveTransfersOwnership) {
  util::UniqueFd a(100);  // fake fd: never dereferenced, released below
  util::UniqueFd b(std::move(a));
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): tested intent
  EXPECT_EQ(b.get(), 100);
  util::UniqueFd c;
  c = std::move(b);
  EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.get(), 100);
  EXPECT_EQ(c.release(), 100);  // don't close the fake fd
  EXPECT_FALSE(c.valid());
}

TEST(UniqueFdTest, ReleaseDetaches) {
  util::UniqueFd fd(7);
  EXPECT_EQ(fd.release(), 7);
  EXPECT_EQ(fd.get(), -1);
  EXPECT_EQ(fd.release(), -1);  // idempotent once empty
}

#if defined(__linux__) || defined(__APPLE__)
TEST(UniqueFdTest, ResetClosesTheDescriptor) {
  int raw = -1;
  {
    util::UniqueFd fd(open("/dev/null", O_RDONLY));
    ASSERT_TRUE(fd.valid());
    raw = fd.get();
    ASSERT_GE(raw, 0);
  }
  // Destroyed: the descriptor must be closed now.
  EXPECT_EQ(fcntl(raw, F_GETFD), -1);
}

TEST(UniqueFdTest, ResetReplacesAndClosesOld) {
  util::UniqueFd fd(open("/dev/null", O_RDONLY));
  const int first = fd.get();
  ASSERT_GE(first, 0);
  const int second = open("/dev/null", O_RDONLY);
  ASSERT_GE(second, 0);
  fd.reset(second);
  EXPECT_EQ(fd.get(), second);
  EXPECT_EQ(fcntl(first, F_GETFD), -1);  // old one closed
  EXPECT_NE(fcntl(second, F_GETFD), -1);
}
#endif

// --- CPU topology -----------------------------------------------------------

TEST(CpuTopologyTest, DetectNeverFailsAndIsSane) {
  const util::CpuTopology topo = util::DetectCpuTopology();
  ASSERT_GE(topo.num_cpus(), 1u);
  ASSERT_GE(topo.num_cores(), 1u);
  EXPECT_LE(topo.num_cores(), topo.num_cpus());
  for (size_t i = 1; i < topo.cpus.size(); ++i) {
    EXPECT_LT(topo.cpus[i - 1].cpu, topo.cpus[i].cpu);  // sorted, distinct
  }
}

TEST(CpuTopologyTest, PlanSpreadsPhysicalCoresFirst) {
  // Synthetic 2-core/4-CPU box with hyperthread pairs (0,2) and (1,3).
  util::CpuTopology topo;
  topo.cpus = {{0, 0, 0}, {1, 1, 0}, {2, 0, 0}, {3, 1, 0}};
  EXPECT_EQ(topo.num_cores(), 2u);

  const std::vector<int> plan = util::PlanWorkerCpus(topo, 4);
  ASSERT_EQ(plan.size(), 4u);
  // The first num_cores workers must land on distinct physical cores.
  std::set<int> first_cores;
  for (size_t i = 0; i < topo.num_cores(); ++i) {
    for (const auto& c : topo.cpus) {
      if (c.cpu == plan[i]) first_cores.insert(c.core_id);
    }
  }
  EXPECT_EQ(first_cores.size(), topo.num_cores());
}

TEST(CpuTopologyTest, PlanWrapsWhenWorkersExceedCpus) {
  util::CpuTopology topo;
  topo.cpus = {{0, 0, 0}, {1, 1, 0}};
  const std::vector<int> plan = util::PlanWorkerCpus(topo, 5);
  ASSERT_EQ(plan.size(), 5u);
  for (int cpu : plan) {
    EXPECT_TRUE(cpu == 0 || cpu == 1);
  }
  EXPECT_EQ(plan[0], plan[2]);  // wraps deterministically
}

TEST(CpuTopologyTest, PlanZeroWorkersIsEmpty) {
  EXPECT_TRUE(
      util::PlanWorkerCpus(util::DetectCpuTopology(), 0).empty());
}

TEST(CpuTopologyTest, PinToDetectedCpuSucceeds) {
  const util::CpuTopology topo = util::DetectCpuTopology();
  ASSERT_FALSE(topo.cpus.empty());
  // Pinning to a CPU from the detected mask must succeed (or be a no-op
  // on platforms without affinity support — also OK by contract).
  EXPECT_TRUE(util::PinCurrentThreadToCpu(topo.cpus[0].cpu).ok());
}

// --- Allocation counting -----------------------------------------------

TEST(AllocCountTest, OtherThreadsDoNotLandInTheCallersCount) {
  if (!util::AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> iterations{0};
  uint64_t other_count = 0;
  std::thread other([&] {
    const uint64_t start = util::AllocCount();
    while (!stop.load(std::memory_order_relaxed)) {
      // An explicit call: unlike a new-expression it cannot be elided.
      ::operator delete(::operator new(32));
      iterations.fetch_add(1, std::memory_order_relaxed);
    }
    other_count = util::AllocCount() - start;
  });
  while (iterations.load() < 100) std::this_thread::yield();
  // An allocation-free window on this thread while the other one keeps
  // allocating: the caller's delta must stay exactly 0.
  const uint64_t before = util::AllocCount();
  const uint64_t seen = iterations.load();
  while (iterations.load() < seen + 1000) {
  }
  const uint64_t delta = util::AllocCount() - before;
  stop.store(true);
  other.join();
  EXPECT_EQ(delta, 0u);
  // The other thread counted its own allocations.
  EXPECT_GE(other_count, iterations.load());
}

// --- Flags ---------------------------------------------------------------

// Flags over `args`, as if they followed a program name on a command line.
util::Flags MakeFlags(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return util::Flags(static_cast<int>(argv.size()), argv.data());
}

// One value given to one getter: whether it parses, and to what. A rejected
// value must yield the getter's default and an error naming the flag.
template <typename T>
struct FlagCase {
  std::string value;
  bool ok;
  T want{};
};

template <typename T, typename Get>
void ExpectFlagCases(const std::vector<FlagCase<T>>& cases, T def, Get get) {
  for (const FlagCase<T>& c : cases) {
    SCOPED_TRACE("n=" + c.value);
    util::Flags flags = MakeFlags({"n=" + c.value});
    const T got = get(flags, def);
    const Status st = flags.Finish();
    EXPECT_EQ(st.ok(), c.ok) << st.ToString();
    EXPECT_EQ(got, c.ok ? c.want : def);
    if (!c.ok) {
      EXPECT_NE(st.message().find("flag n=" + c.value + ": expected"),
                std::string::npos)
          << st.message();
    }
  }
}

TEST(FlagsTest, CountTakesUnsignedDecimalsOnly) {
  ExpectFlagCases<uint64_t>(
      {{"0", true, 0},
       {"42", true, 42},
       {"007", true, 7},
       {"18446744073709551615", true, UINT64_MAX},
       {"18446744073709551616", false},  // overflow
       {"", false},                      // empty number
       {"abc", false},                   // garbage
       {"12abc", false},                 // trailing text
       {"5 ", false},
       {" 5", false},
       {"-3", false},  // a sign on a count is an error, not 2^64-3
       {"+3", false},
       {"-0", false},
       {"0x10", false},
       {"1e3", false},
       {"2.5", false}},
      uint64_t{9},
      [](util::Flags& f, uint64_t def) { return f.Count("n", def); });
}

TEST(FlagsTest, CountRangeCapsThreadCounts) {
  ExpectFlagCases<uint64_t>(
      {{"1", true, 1},
       {"1024", true, 1024},
       {"0", false},
       {"1025", false},
       {"4294967296", false}},
      uint64_t{2}, [](util::Flags& f, uint64_t def) {
        return f.Count("n", def, 1, util::Flags::kMaxThreads);
      });
  util::Flags flags = MakeFlags({"workers=0"});
  flags.Count("workers", 2, 1, util::Flags::kMaxThreads);
  EXPECT_EQ(flags.Finish().message(),
            "flag workers=0: expected a count in [1, 1024]");
}

TEST(FlagsTest, ErrorNamesOnlyTheBoundsThatAreSet) {
  const struct {
    std::function<void(util::Flags&)> get;
    std::string want;
  } cases[] = {
      {[](util::Flags& f) { f.Count("n", 0); }, "expected a count"},
      {[](util::Flags& f) { f.Count("n", 1, 1); }, "expected a count >= 1"},
      {[](util::Flags& f) { f.Int("n", 0); }, "expected an integer"},
      {[](util::Flags& f) { f.Int("n", 0, INT64_MIN, 9); },
       "expected an integer <= 9"},
      {[](util::Flags& f) { f.Double("n", 0, 0); },
       "expected a finite number >= 0"},
      {[](util::Flags& f) { f.Double("n", 0, 0, 1); },
       "expected a finite number in [0, 1]"},
  };
  for (const auto& c : cases) {
    util::Flags flags = MakeFlags({"n=x"});
    c.get(flags);
    EXPECT_EQ(flags.Finish().message(), "flag n=x: " + c.want);
  }
}

TEST(FlagsTest, IntTakesSignedDecimalsInRange) {
  ExpectFlagCases<int64_t>(
      {{"0", true, 0},
       {"-3", true, -3},
       {"9223372036854775807", true, INT64_MAX},
       {"-9223372036854775808", true, INT64_MIN},
       {"9223372036854775808", false},  // overflow
       {"-9223372036854775809", false},
       {"", false},
       {"-", false},
       {"--3", false},
       {"+3", false},
       {"3.0", false},
       {"3x", false}},
      int64_t{5}, [](util::Flags& f, int64_t def) { return f.Int("n", def); });
  ExpectFlagCases<int64_t>(
      {{"0", true, 0}, {"10", true, 10}, {"-1", false}, {"11", false}},
      int64_t{5},
      [](util::Flags& f, int64_t def) { return f.Int("n", def, 0, 10); });
}

TEST(FlagsTest, DoubleTakesFiniteDecimalsInRange) {
  ExpectFlagCases<double>(
      {{"0", true, 0.0},
       {"0.5", true, 0.5},
       {"-2.25", true, -2.25},
       {"1e3", true, 1000.0},
       {"5", true, 5.0},
       {"", false},
       {"abc", false},
       {"0.5s", false},
       {"1,5", false},
       {"nan", false},
       {"inf", false},
       {"-inf", false},
       {"infinity", false},
       {"1e400", false},  // overflow
       {"+1", false}},
      1.0, [](util::Flags& f, double def) { return f.Double("n", def); });
  ExpectFlagCases<double>(
      {{"0", true, 0.0}, {"1", true, 1.0}, {"-0.1", false}, {"1.5", false}},
      0.25, [](util::Flags& f, double def) { return f.Double("n", def, 0, 1); });
}

TEST(FlagsTest, BoolTakesZeroOrOne) {
  ExpectFlagCases<bool>({{"0", true, false},
                         {"1", true, true},
                         {"2", false},
                         {"yes", false},
                         {"true", false},
                         {"01", false},
                         {"", false}},
                        true,
                        [](util::Flags& f, bool def) { return f.Bool("n", def); });
}

TEST(FlagsTest, StringTakesAnyValueIncludingEmpty) {
  util::Flags flags = MakeFlags({"json=", "where=a=b", "path=/tmp/x y"});
  EXPECT_EQ(flags.String("json", "bench.json"), "");
  EXPECT_EQ(flags.String("where", ""), "a=b");
  EXPECT_EQ(flags.String("path", ""), "/tmp/x y");
  EXPECT_EQ(flags.String("absent", "dflt"), "dflt");
  EXPECT_TRUE(flags.Finish().ok());
}

TEST(FlagsTest, OnlyIdentifierEqualsValueIsAFlag) {
  const std::vector<std::string> positional = {
      "SELECT COUNT(*) FROM title t, movie_keyword mk "
      "WHERE mk.movie_id = t.id",
      "SELECT COUNT(*) FROM title t WHERE t.kind_id=1",
      "k.keyword='murder'",
      "/tmp/runs/a=b.sketch",
      "demo.sketch",
      "Threads=4",  // keys are lower case
      "9lives=1",
      "=5",
      "--help",
      "-x=1",
  };
  std::vector<std::string> args = positional;
  args.insert(args.begin() + 2, "threads=4");
  args.push_back("_private_2=x");
  util::Flags flags = MakeFlags(args);
  EXPECT_EQ(flags.Count("threads", 1), 4u);
  EXPECT_EQ(flags.String("_private_2", ""), "x");
  EXPECT_EQ(flags.TakePositionals(), positional);
  EXPECT_TRUE(flags.Finish().ok()) << flags.Finish().ToString();
}

TEST(FlagsTest, PositionalRejectedUnlessTaken) {
  util::Flags rejecting = MakeFlags({"titles=5", "stray"});
  rejecting.Count("titles", 1);
  EXPECT_EQ(rejecting.Finish().message(),
            "unexpected argument 'stray' (flags are name=value)");

  util::Flags taking = MakeFlags({"stray"});
  EXPECT_EQ(taking.TakePositionals(), std::vector<std::string>{"stray"});
  EXPECT_TRUE(taking.Finish().ok());
}

TEST(FlagsTest, DuplicateKeyIsAnError) {
  util::Flags flags = MakeFlags({"workers=2", "workers=3"});
  EXPECT_EQ(flags.Count("workers", 1), 2u);
  EXPECT_EQ(flags.Finish().message(), "flag 'workers' given twice");
}

TEST(FlagsTest, UnreadKeyIsAnErrorListingTheKnownKeys) {
  util::Flags flags =
      MakeFlags({"demo=imdb", "listn=127.0.0.1:99999", "seconds=0.3"});
  flags.String("demo", "");
  flags.String("listen", "127.0.0.1:0");
  flags.Double("seconds", 0, 0);
  EXPECT_EQ(flags.Finish().message(),
            "unknown flag 'listn' (known: demo, listen, seconds)");
}

TEST(FlagsTest, KeyMayBeReadTwice) {
  util::Flags flags = MakeFlags({"seed=7"});
  EXPECT_EQ(flags.Count("seed", 42), 7u);
  EXPECT_EQ(flags.Count("seed", 42), 7u);
  EXPECT_TRUE(flags.Finish().ok());
}

TEST(FlagsTest, FirstErrorWins) {
  util::Flags flags = MakeFlags({"threads=abc", "depth=-3", "bogus=1"});
  EXPECT_EQ(flags.Count("threads", 4, 1, util::Flags::kMaxThreads), 4u);
  EXPECT_EQ(flags.Count("depth", 4, 1), 4u);
  EXPECT_EQ(flags.Finish().message(),
            "flag threads=abc: expected a count in [1, 1024]");
}

TEST(FlagsTest, NoArgumentsMeansDefaults) {
  util::Flags flags = MakeFlags({});
  EXPECT_EQ(flags.Count("n", 3), 3u);
  EXPECT_EQ(flags.Int("i", -1), -1);
  EXPECT_EQ(flags.Double("d", 0.5), 0.5);
  EXPECT_TRUE(flags.Bool("b", true));
  EXPECT_TRUE(flags.TakePositionals().empty());
  EXPECT_TRUE(flags.Finish().ok());
}

}  // namespace
}  // namespace ds
