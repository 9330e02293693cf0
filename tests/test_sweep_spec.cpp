// SweepSpec expansion and the ambb_sweep spec-file parser
// (src/engine/sweep.hpp): cross-product order, label scheme, fault-load
// selection modes, filtering, registry validation, and the line-oriented
// parse errors.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "engine/sweep.hpp"
#include "figures.hpp"
#include "runner/registry.hpp"

namespace ambb::engine {
namespace {

TEST(SweepExpand, DefaultsGiveOneJobWithMinimalLabel) {
  SweepSpec spec;
  spec.protocol = "phase-king";
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 1u);
  // No explicit name: the protocol prefixes the label; single-valued
  // dimensions (f, L, seed, rep) are omitted after /n.
  EXPECT_EQ(jobs[0].label, "phase-king/none/n16");
  EXPECT_EQ(jobs[0].protocol, "phase-king");
  EXPECT_EQ(jobs[0].params.n, 16u);
  EXPECT_EQ(jobs[0].params.f, 16u / 3);  // default fault load n/3
  EXPECT_EQ(jobs[0].params.slots, Slot{8});
  EXPECT_EQ(jobs[0].params.seed, 1u);
  EXPECT_FALSE(to_engine_job(jobs[0]).allow_stall);
}

TEST(SweepExpand, CrossProductOrderIsNThenFThenSlotsThenAdvThenSeedThenRep) {
  SweepSpec spec;
  spec.name = "grid";
  spec.protocol = "dolev-strong";
  spec.ns = {8, 12};
  spec.fs = {1, 2};
  spec.slots_list = {4, 6};
  spec.adversaries = {"none", "silent"};
  spec.seed_begin = 1;
  spec.seed_end = 2;
  spec.repetitions = 2;

  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 64u);  // 2*2*2*2*2*2

  // Innermost dimension first: repetitions vary fastest, n slowest.
  EXPECT_EQ(jobs[0].label, "grid/none/n8/f1/L4/s1/r1");
  EXPECT_EQ(jobs[1].label, "grid/none/n8/f1/L4/s1/r2");
  EXPECT_EQ(jobs[2].label, "grid/none/n8/f1/L4/s2/r1");
  EXPECT_EQ(jobs[4].label, "grid/silent/n8/f1/L4/s1/r1");
  EXPECT_EQ(jobs[8].label, "grid/none/n8/f1/L6/s1/r1");
  EXPECT_EQ(jobs[16].label, "grid/none/n8/f2/L4/s1/r1");
  EXPECT_EQ(jobs[32].label, "grid/none/n12/f1/L4/s1/r1");
  EXPECT_EQ(jobs[63].label, "grid/silent/n12/f2/L6/s2/r2");

  // Params track the label.
  EXPECT_EQ(jobs[63].params.n, 12u);
  EXPECT_EQ(jobs[63].params.f, 2u);
  EXPECT_EQ(jobs[63].params.slots, Slot{6});
  EXPECT_EQ(jobs[63].params.adversary, "silent");
  EXPECT_EQ(jobs[63].params.seed, 2u);
}

TEST(SweepExpand, FFracFloorsPerNMatchingBenchArithmetic) {
  // f = floor(3n / 10) in integers: the f the F2 grid has always used at
  // n = 24, 32, 48 (7, 9, 14), and exact at n = 10, where the old double
  // product truncated 0.3 * 10 = 2.999... to f = 2.
  SweepSpec spec;
  spec.protocol = "linear";
  spec.ns = {10, 20, 24, 32, 48, 64};
  spec.f_frac_num = 3;
  spec.f_frac_den = 10;
  const auto jobs = expand(spec);
  const std::vector<std::uint32_t> want = {3, 6, 7, 9, 14, 19};
  ASSERT_EQ(jobs.size(), want.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].params.f, want[i]) << "n=" << spec.ns[i];
  }
}

TEST(SpecParser, FFracAcceptsRationalsAndRejectsJunk) {
  auto f_of = [](const std::string& frac, std::uint32_t n) {
    const auto specs = parse_spec("sweep x\nprotocol dolev-strong\nn " +
                                  std::to_string(n) + "\nf-frac " + frac +
                                  "\n");
    const auto jobs = expand_all(specs);
    AMBB_CHECK(jobs.size() == 1);
    return jobs[0].params.f;
  };
  EXPECT_EQ(f_of("1/3", 12), 4u);
  EXPECT_EQ(f_of("1/3", 10), 3u);   // floor(10/3)
  EXPECT_EQ(f_of("1/2", 7), 3u);
  EXPECT_EQ(f_of("0.3", 10), 3u);   // the regression case
  EXPECT_EQ(f_of("0.25", 10), 2u);  // floor still floors
  EXPECT_EQ(f_of("333333333/1000000000", 30), 9u);  // 9-digit den is legal

  for (const char* bad :
       {"3/0", "4/3", "1.5", "0.0000000001", "1//2", "x", "0..3"}) {
    EXPECT_THROW(parse_spec(std::string("sweep x\nprotocol linear\nn 10\n"
                                        "f-frac ") +
                            bad + "\n"),
                 CheckError)
        << bad;
  }
}

TEST(SweepExpand, ScheduleSpecsExpandForEveryProtocol) {
  // "sched:..." / "fuzz" tokenize as one word in spec files and are
  // accepted by every registry protocol; allow_stall follows the
  // registry's sched_may_stall flag instead of known_liveness_failures.
  for (const char* proto : {"linear", "hotstuff"}) {
    SweepSpec spec;
    spec.protocol = proto;
    spec.ns = {8};
    spec.fs = {2};
    spec.adversaries = {"sched:corrupt(0,0);silence(0,0,*)", "fuzz"};
    const auto jobs = expand(spec);
    ASSERT_EQ(jobs.size(), 2u) << proto;
    const bool stalls = protocol(proto).policy.sched_may_stall;
    EXPECT_EQ(to_engine_job(jobs[0]).allow_stall, stalls) << proto;
    EXPECT_EQ(to_engine_job(jobs[1]).allow_stall, stalls) << proto;
  }
  // An adversary that is neither named nor a schedule still errors.
  SweepSpec bad;
  bad.protocol = "linear";
  bad.adversaries = {"sched-typo"};
  EXPECT_THROW(expand(bad), CheckError);
}

TEST(SweepExpand, PayloadAxisMapsToValueBitsForRawRowsOnly) {
  // Non-ext protocols carry the payload inline: value_bits becomes 8L.
  SweepSpec raw;
  raw.protocol = "dolev-strong";
  raw.ns = {8};
  raw.fs = {2};
  raw.payloads = {512, 4096};
  const auto raw_jobs = expand(raw);
  ASSERT_EQ(raw_jobs.size(), 2u);
  EXPECT_EQ(raw_jobs[0].label, "dolev-strong/none/n8/p512");
  EXPECT_EQ(raw_jobs[1].label, "dolev-strong/none/n8/p4096");
  EXPECT_EQ(raw_jobs[0].params.payload_bytes, 512u);
  EXPECT_EQ(raw_jobs[0].params.value_bits, 8u * 512u);
  EXPECT_EQ(raw_jobs[1].params.value_bits, 8u * 4096u);

  // ext:* rows erasure-code the payload; the base phase stays at the
  // spec's value_bits (kappa-sized digests), only payload_bytes moves.
  SweepSpec ext;
  ext.protocol = "ext:dolev-strong";
  ext.ns = {8};
  ext.fs = {2};
  ext.payloads = {4096};
  const auto ext_jobs = expand(ext);
  ASSERT_EQ(ext_jobs.size(), 1u);
  // Single payload value: no /p label component.
  EXPECT_EQ(ext_jobs[0].label, "ext:dolev-strong/none/n8");
  EXPECT_EQ(ext_jobs[0].params.payload_bytes, 4096u);
  EXPECT_EQ(ext_jobs[0].params.value_bits, kDefaultValueBits);

  // 8 * payload must fit value_bits for raw rows; ext rows have no cap.
  SweepSpec huge;
  huge.protocol = "dolev-strong";
  huge.ns = {8};
  huge.fs = {2};
  huge.payloads = {0x20000000ULL};
  EXPECT_THROW(expand(huge), CheckError);
  huge.protocol = "ext:dolev-strong";
  EXPECT_NO_THROW(expand(huge));
}

TEST(SweepExpand, PayloadSitsBetweenSlotsAndAdversaryInTheOrder) {
  SweepSpec spec;
  spec.name = "px";
  spec.protocol = "dolev-strong";
  spec.ns = {8};
  spec.fs = {1};
  spec.payloads = {64, 128};
  spec.adversaries = {"none", "silent"};
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 4u);
  // Adversary varies fastest, payload slower (documented stable order).
  EXPECT_EQ(jobs[0].label, "px/none/n8/p64");
  EXPECT_EQ(jobs[1].label, "px/silent/n8/p64");
  EXPECT_EQ(jobs[2].label, "px/none/n8/p128");
  EXPECT_EQ(jobs[3].label, "px/silent/n8/p128");
}

TEST(SweepExpand, FMaxUsesTheRegistryBound) {
  SweepSpec spec;
  spec.protocol = "phase-king";
  spec.ns = {10, 16};
  spec.f_max = true;
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].params.f, (10u - 1) / 3);
  EXPECT_EQ(jobs[1].params.f, (16u - 1) / 3);
}

TEST(SweepExpand, SlotsPerNScalesWithN) {
  SweepSpec spec;
  spec.protocol = "linear";
  spec.ns = {10, 20};
  spec.slots_per_n = 3;
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].params.slots, Slot{30});
  EXPECT_EQ(jobs[1].params.slots, Slot{60});
}

TEST(SweepExpand, AllowStallComesFromRegistryLivenessFailures) {
  SweepSpec spec;
  spec.protocol = "hotstuff";
  spec.ns = {7};
  spec.fs = {2};
  spec.adversaries = {"none", "selective"};
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_FALSE(to_engine_job(jobs[0]).allow_stall);  // none
  EXPECT_TRUE(to_engine_job(jobs[1]).allow_stall);   // selective: known stall
}

TEST(SweepExpand, ValidationErrors) {
  SweepSpec spec;
  spec.protocol = "no-such-protocol";
  EXPECT_THROW(expand(spec), CheckError);

  spec.protocol = "phase-king";
  spec.adversaries = {"mixed"};  // a linear-family spec, not phase-king's
  EXPECT_THROW(expand(spec), CheckError);

  spec.adversaries = {"none"};
  spec.ns = {8};
  spec.fs = {8};  // f >= n
  EXPECT_THROW(expand(spec), CheckError);

  spec.fs = {2};
  spec.seed_begin = 5;
  spec.seed_end = 4;  // backwards range
  EXPECT_THROW(expand(spec), CheckError);

  spec.seed_end = 5;
  spec.repetitions = 0;
  EXPECT_THROW(expand(spec), CheckError);
}

TEST(SweepExpand, ExpandAllConcatenatesInSpecOrder) {
  SweepSpec a;
  a.name = "a";
  a.protocol = "phase-king";
  SweepSpec b;
  b.name = "b";
  b.protocol = "dolev-strong";
  b.ns = {8};
  b.fs = {1};
  const auto jobs = expand_all({a, b});
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].label, "a/none/n16");
  EXPECT_EQ(jobs[1].label, "b/none/n8");
}

TEST(SweepFilter, SubstringOnLabelsEmptyKeepsAll) {
  SweepSpec spec;
  spec.name = "flt";
  spec.protocol = "dolev-strong";
  spec.ns = {8, 12};
  spec.fs = {1};
  spec.adversaries = {"none", "stagger"};
  auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 4u);

  const auto stagger = filter_jobs(jobs, "stagger");
  ASSERT_EQ(stagger.size(), 2u);
  EXPECT_EQ(stagger[0].label, "flt/stagger/n8");
  EXPECT_EQ(stagger[1].label, "flt/stagger/n12");

  EXPECT_EQ(filter_jobs(jobs, "n12").size(), 2u);
  EXPECT_EQ(filter_jobs(jobs, "").size(), 4u);
  EXPECT_TRUE(filter_jobs(jobs, "no-match").empty());
}

TEST(SweepToEngineJob, ClosureRunsTheRegistryDriverWithTheCellParams) {
  SweepSpec spec;
  spec.protocol = "phase-king";
  spec.ns = {10};
  spec.fs = {3};
  spec.slots_list = {4};
  spec.seed_begin = spec.seed_end = 41;
  const auto sjs = expand(spec);
  ASSERT_EQ(sjs.size(), 1u);

  const Job job = to_engine_job(sjs[0]);
  EXPECT_EQ(job.label, sjs[0].label);
  const RunResult r = job.run();
  EXPECT_EQ(r.n, 10u);
  EXPECT_EQ(r.f, 3u);
  EXPECT_EQ(r.slots, Slot{4});
  EXPECT_EQ(check_all(r), std::vector<std::string>{});
}

TEST(SpecParser, ParsesBlocksCommentsAndAllKeys) {
  const std::string text = R"(# leading comment
sweep alg4
protocol linear
n 24 32          # trailing comment
f-frac 0.3
slots-per-n 3
adversary mixed none
seeds 7 9
reps 2
eps 0.2
kappa 512
value-bits 128

sweep kings
protocol phase-king
n 10
f max
slots 4 6
)";
  const auto specs = parse_spec(text);
  ASSERT_EQ(specs.size(), 2u);

  const SweepSpec& s0 = specs[0];
  EXPECT_EQ(s0.name, "alg4");
  EXPECT_EQ(s0.protocol, "linear");
  EXPECT_EQ(s0.ns, (std::vector<std::uint32_t>{24, 32}));
  // "f-frac 0.3" parses into the EXACT rational 3/10.
  EXPECT_EQ(s0.f_frac_num, 3u);
  EXPECT_EQ(s0.f_frac_den, 10u);
  EXPECT_EQ(s0.slots_per_n, 3u);
  EXPECT_EQ(s0.adversaries, (std::vector<std::string>{"mixed", "none"}));
  EXPECT_EQ(s0.seed_begin, 7u);
  EXPECT_EQ(s0.seed_end, 9u);
  EXPECT_EQ(s0.repetitions, 2u);
  EXPECT_DOUBLE_EQ(s0.eps, 0.2);
  EXPECT_EQ(s0.kappa_bits, 512u);
  EXPECT_EQ(s0.value_bits, 128u);

  const SweepSpec& s1 = specs[1];
  EXPECT_EQ(s1.name, "kings");
  EXPECT_TRUE(s1.f_max);
  EXPECT_EQ(s1.slots_list, (std::vector<Slot>{4, 6}));
  // Unset keys keep their defaults in the second block.
  EXPECT_EQ(s1.adversaries, std::vector<std::string>{"none"});
  EXPECT_EQ(s1.repetitions, 1u);

  // End-to-end expansion: 2n * 2adv * 3seeds * 2reps + 1n * 2slots.
  EXPECT_EQ(expand_all(specs).size(), 24u + 2u);
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    parse_spec(text);
    FAIL() << "expected CheckError for:\n" << text;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(SpecParser, ErrorsCarryTheOffendingLine) {
  expect_parse_error("protocol linear\n", "key before any 'sweep'");
  expect_parse_error("sweep x\nfrobnicate 3\n", "unknown key 'frobnicate'");
  expect_parse_error("sweep x\nprotocol linear\nn\n", "needs a value");
  expect_parse_error("sweep x\nprotocol linear\nn twelve\n", "line 3");
  expect_parse_error("sweep x\nprotocol linear\nseeds 4\n",
                     "'seeds' needs begin end");
  expect_parse_error("sweep one two\n", "'sweep' needs one name");
  // Every diagnostic names the offending line, including block-level
  // errors reported after the parse loop: the no-protocol message points
  // at the block's own 'sweep' line, not the end of the file.
  expect_parse_error("sweep x\nn 8\n", "has no 'protocol' key");
  expect_parse_error("sweep x\nn 8\n", "spec line 1");
  expect_parse_error("sweep ok\nprotocol linear\n\nsweep bad\nn 8\n",
                     "spec line 4");
  expect_parse_error("sweep x\nprotocol linear\n\n\npayload 0\n",
                     "spec line 5");
  expect_parse_error("sweep x\nprotocol linear\npayload 4096 huge\n",
                     "spec line 3");
  expect_parse_error("sweep x\nprotocol linear\nnet lockstep bogus\n",
                     "spec line 3");
  expect_parse_error("report nope\nsweep x\nprotocol linear\n",
                     "spec line 1: unknown report 'nope'");
  expect_parse_error("sweep x\nreport nope\nprotocol linear\n",
                     "spec line 2: one 'report NAME' line goes before");
}

TEST(SpecParser, ScheduleLiteralsFailOnTheirSpecLine) {
  // A malformed "sched:" or "fuzz:" entry used to list as a job and fail
  // only when that job ran.
  for (const char* adv :
       {"sched:corrupt(0,4294967296)", "sched:frobnicate(1)", "fuzz:x"}) {
    expect_parse_error(
        std::string("sweep x\nprotocol linear\nadversary none ") + adv + "\n",
        "spec line 3");
    SweepSpec spec;
    spec.protocol = "linear";
    spec.adversaries = {adv};
    EXPECT_THROW(expand(spec), CheckError) << adv;
  }
  EXPECT_EQ(expand_all(parse_spec("sweep x\nprotocol linear\n"
                                  "adversary sched:corrupt(0,1) fuzz:3\n"))
                .size(),
            2u);
}

TEST(SpecParser, EpsOutsideTheOpenHalfIntervalFailsOnItsLine) {
  // "eps -0.2" used to list fine and then fail every linear job inside
  // build_expander.
  for (const char* eps : {"-0.2", "0", "0.5", "nan", "0.2x"}) {
    expect_parse_error(std::string("sweep x\nprotocol linear\neps ") + eps,
                       "spec line 3");
  }
  EXPECT_DOUBLE_EQ(
      parse_spec("sweep x\nprotocol linear\neps 0.05\n")[0].eps, 0.05);
}

TEST(SpecParser, ReportLineNamesAKnownAnalysis) {
  std::string report = "stale";
  parse_spec("sweep x\nprotocol linear\n", {"f2_scaling"}, &report);
  EXPECT_EQ(report, "");
  parse_spec("# c\nreport f2_scaling\nsweep x\nprotocol linear\n",
             {"f2_scaling"}, &report);
  EXPECT_EQ(report, "f2_scaling");
}

TEST(SpecParser, PayloadKeyParsesAList) {
  const auto specs = parse_spec(
      "sweep p\nprotocol ext:linear\nn 8\nf 2\npayload 512 4096 32768\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].payloads,
            (std::vector<std::uint64_t>{512, 4096, 32768}));
  const auto jobs = expand_all(specs);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].label, "p/none/n8/p512");
  EXPECT_EQ(jobs[2].params.payload_bytes, 32768u);
}

TEST(SpecParser, UnsignedKeysRejectNegativeAndOutOfRangeNumbers) {
  // istringstream read "-1" into an unsigned key as its maximum value
  // without failing, so "n -1" silently asked for ~4 billion nodes.
  const char* bad[] = {
      "n -1",      "slots -3",   "seeds -1 -1", "seeds 1 -1",
      "reps -2",   "kappa +128", "n 4294967296", "slots 0x10",
      "n 1e3",     "f -1",       "payload -1",  "slots-per-n -3",
  };
  for (const char* line : bad) {
    const std::string text =
        std::string("sweep x\nprotocol linear\n") + line + "\n";
    EXPECT_THROW(parse_spec(text), CheckError) << line;
  }
  // The full range of each key's type still parses.
  const auto specs = parse_spec(
      "sweep x\nprotocol linear\nn 4294967295\n"
      "seeds 0 18446744073709551615\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].ns, std::vector<std::uint32_t>{4294967295u});
  EXPECT_EQ(specs[0].seed_end, 18446744073709551615ull);
}

TEST(SweepExpand, SeedRangeEndingAtU64MaxTerminates) {
  // The seed loop used to test seed <= seed_end, which always holds for
  // seed_end = 2^64-1: the counter wrapped and the job list never ended.
  const auto specs = parse_spec(
      "sweep top\nprotocol linear\nn 8\nf 2\nslots 2\n"
      "seeds 18446744073709551614 18446744073709551615\n");
  const auto jobs = expand_all(specs);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].params.seed, 18446744073709551614ull);
  EXPECT_EQ(jobs[1].params.seed, 18446744073709551615ull);
  EXPECT_EQ(jobs[1].label, "top/none/n8/s18446744073709551615");

  SweepSpec one;
  one.protocol = "linear";
  one.ns = {8};
  one.seed_begin = one.seed_end = 18446744073709551615ull;
  EXPECT_EQ(expand(one).size(), 1u);
}

TEST(SpecParser, EveryCheckedInSpecFileParsesAndExpands) {
  // Job count per checked-in spec; a new spec file must be added here.
  // f2_scaling and payload_scaling generate the committed BENCH files
  // (23 and 20 rows), which scripts/ci.sh perf_smoke regenerates.
  const std::map<std::string, std::size_t> want_jobs = {
      {"a1_ablation.spec", 24},    {"f1_convergence.spec", 6},
      {"f2_scaling.spec", 23},     {"f3_adversaries.spec", 7},
      {"f4_hotstuff.spec", 2},     {"f5_trustcast.spec", 10},
      {"payload_scaling.spec", 20}, {"table1.spec", 12},
      {"worst_sched.spec", 14},
  };
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(AMBB_SPECS_DIR)) {
    if (entry.path().extension() != ".spec") continue;
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    const auto want = want_jobs.find(name);
    ASSERT_NE(want, want_jobs.end()) << "no expected job count";
    ++files;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string report;
    EXPECT_EQ(expand_all(parse_spec(ss.str(), figures::names(), &report))
                  .size(),
              want->second);
    // Every figure's spec names its analysis; worst_sched is a plain grid.
    EXPECT_EQ(report.empty(), name == "worst_sched.spec") << report;
  }
  EXPECT_EQ(files, want_jobs.size());
}

TEST(Figures, F6PayloadCountsAMissingCrossoverAsAFailedClaim) {
  // ext:linear never beats inline linear at 64 bytes; by 4 KiB it does.
  for (const std::string payloads : {"64", "64 4096"}) {
    const std::string cell = "\nn 16\nf 4\nslots 4\npayload " + payloads;
    const auto jobs = expand_all(parse_spec("sweep e\nprotocol ext:linear" +
                                            cell + "\nsweep r\nprotocol "
                                                   "linear" + cell + "\n"));
    const auto outs = Engine(1).run(to_engine_jobs(jobs));
    EXPECT_EQ(figures::report("f6_payload", jobs, outs),
              payloads == "64" ? 1u : 0u);
  }
}

TEST(SpecParser, PayloadScalingSpecFileRoundTrips) {
  // The crossover spec: 4 blocks x 5 payloads, ext rows paired with raw
  // baselines whose value_bits carry the payload inline.
  std::ifstream in(std::string(AMBB_SPECS_DIR) + "/payload_scaling.spec");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();

  const auto specs = parse_spec(ss.str(), figures::names());
  ASSERT_EQ(specs.size(), 4u);
  const auto jobs = expand_all(specs);
  ASSERT_EQ(jobs.size(), 20u);
  for (const auto& j : jobs) {
    EXPECT_GE(j.params.payload_bytes, 64u) << j.label;
    EXPECT_NE(j.label.find("/p"), std::string::npos) << j.label;
    const bool is_ext = j.protocol.rfind("ext:", 0) == 0;
    if (is_ext) {
      EXPECT_EQ(j.params.value_bits, kDefaultValueBits) << j.label;
    } else {
      EXPECT_EQ(j.params.value_bits, 8u * j.params.payload_bytes) << j.label;
    }
  }
}

}  // namespace
}  // namespace ambb::engine
