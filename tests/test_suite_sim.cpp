// Whole-design simulations of the benchmark suite, including a frisc
// CPU system test against a reactive memory model (sim::Environment).
#include <gtest/gtest.h>

#include <map>

#include "designs/designs.hpp"
#include "driver/synthesis.hpp"
#include "sim/simulator.hpp"

namespace relsched::sim {
namespace {

struct Synthesized {
  seq::Design design;
  driver::SynthesisResult result;

  explicit Synthesized(const char* name) : design(designs::build(name)) {
    result = driver::synthesize(design);
    EXPECT_TRUE(result.ok()) << name << ": " << result.message;
  }
};

// ---- traffic -----------------------------------------------------------------

TEST(SuiteSim, TrafficSwitchesLightsOnEvents) {
  Synthesized s("traffic");
  Stimulus stim;
  stim.set(s.design, "cars", 6, 1);
  stim.set(s.design, "timeout", 20, 1);
  Simulator sim(s.design, s.result, stim);
  const auto r = sim.run();
  ASSERT_FALSE(r.timed_out);
  const PortId hl = *s.design.find_port("hl");
  const PortId fl = *s.design.find_port("fl");
  // Highway green before cars arrive, red after.
  EXPECT_EQ(r.output_at(hl, 5), 0);
  EXPECT_EQ(r.output_at(hl, r.end_cycle), 2);
  // Farm goes green after cars, red again after the timeout.
  EXPECT_EQ(r.output_at(fl, 10), 0);
  EXPECT_EQ(r.output_at(fl, r.end_cycle), 2);
  // The farm-green phase must not end before the timeout fires.
  for (const auto& [cycle, value] : r.port_writes.at(fl)) {
    if (value == 2) {
      EXPECT_GE(cycle, 20);
    }
  }
}

// ---- length ------------------------------------------------------------------

TEST(SuiteSim, LengthMeasuresWiderPulsesAsLarger) {
  Synthesized s("length");
  std::int64_t narrow = -1, wide = -1;
  for (const int width : {4, 20}) {
    Stimulus stim;
    stim.set(s.design, "pulse", 3, 1);
    stim.set(s.design, "pulse", 3 + width, 0);
    Simulator sim(s.design, s.result, stim);
    const auto r = sim.run();
    ASSERT_FALSE(r.timed_out);
    const auto& writes = r.port_writes.at(*s.design.find_port("len"));
    ASSERT_EQ(writes.size(), 1u);
    (width == 4 ? narrow : wide) = writes[0].second;
  }
  EXPECT_GT(narrow, 0);
  EXPECT_GT(wide, narrow);
}

// ---- daio phase decoder ---------------------------------------------------------

TEST(SuiteSim, DaioPhaseClassifiesIntervals) {
  Synthesized s("daio_phase");
  Stimulus stim;
  stim.set(s.design, "run", 0, 1);
  // A biphase-ish input: short intervals (toggle fast).
  int level = 1;
  for (graph::Weight c = 2; c < 120; c += 6) {
    stim.set(s.design, "din", c, level);
    level ^= 1;
  }
  stim.set(s.design, "run", 120, 0);
  Simulator sim(s.design, s.result, stim);
  SimOptions opts;
  opts.max_cycles = 20000;
  const auto r = sim.run(opts);
  ASSERT_FALSE(r.timed_out);
  // Some bits must have been emitted with valid pulses.
  const auto it = r.port_writes.find(*s.design.find_port("bit_valid"));
  ASSERT_NE(it, r.port_writes.end());
  int pulses = 0;
  for (const auto& [cycle, value] : it->second) {
    if (value == 1) ++pulses;
  }
  EXPECT_GT(pulses, 2);
}

// ---- dct phase A ------------------------------------------------------------------

TEST(SuiteSim, DctAEmitsEightCoefficientsPerRow) {
  Synthesized s("dct_a");
  Stimulus stim;
  stim.set(s.design, "run", 0, 1);
  stim.set(s.design, "run", 1, 0);  // exactly one row sweep
  stim.set(s.design, "yready", 0, 1);
  stim.set(s.design, "xin", 0, 3);
  // xvalid toggles forever with period 8.
  for (graph::Weight c = 0; c < 4000; c += 8) {
    stim.set(s.design, "xvalid", c + 4, 1);
    stim.set(s.design, "xvalid", c + 8, 0);
  }
  Simulator sim(s.design, s.result, stim);
  SimOptions opts;
  opts.max_cycles = 50000;
  const auto r = sim.run(opts);
  ASSERT_FALSE(r.timed_out);
  const auto& yout = r.port_writes.at(*s.design.find_port("yout"));
  EXPECT_EQ(yout.size(), 8u);  // 8 coefficients for the single row
  int valid_pulses = 0;
  for (const auto& [cycle, value] :
       r.port_writes.at(*s.design.find_port("yvalid"))) {
    if (value == 1) ++valid_pulses;
  }
  EXPECT_EQ(valid_pulses, 8);
  EXPECT_TRUE(r.all_constraints_satisfied());
}

// ---- daio receiver -----------------------------------------------------------

TEST(SuiteSim, DaioRxAssemblesOneBlockOfSubframes) {
  Synthesized s("daio_rx");
  Stimulus stim;
  stim.set(s.design, "run", 0, 1);
  stim.set(s.design, "run", 10, 0);  // exactly one block
  stim.set(s.design, "preamble", 1, 1);
  stim.set(s.design, "preamble", 3, 0);
  stim.set(s.design, "bit_in", 0, 0);  // all-zero bits: even parity
  // bit_valid toggles with period 4 for the whole block.
  for (graph::Weight c = 6; c < 4000; c += 4) {
    stim.set(s.design, "bit_valid", c, 1);
    stim.set(s.design, "bit_valid", c + 2, 0);
  }
  Simulator sim(s.design, s.result, stim);
  SimOptions opts;
  opts.max_cycles = 60000;
  const auto r = sim.run(opts);
  ASSERT_FALSE(r.timed_out);
  // Eight subframes, all with good parity: eight frame_sync pulses and
  // no parity errors.
  int sync_pulses = 0;
  for (const auto& [cycle, value] :
       r.port_writes.at(*s.design.find_port("frame_sync"))) {
    if (value == 1) ++sync_pulses;
  }
  EXPECT_EQ(sync_pulses, 8);
  EXPECT_EQ(r.port_writes.count(*s.design.find_port("parity_err")), 0u);
  // The channel-status register was emitted once (all zeros).
  const auto& status = r.port_writes.at(*s.design.find_port("status_out"));
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].second, 0);
  // The exact-2-cycle frame_sync window held on every subframe.
  EXPECT_TRUE(r.all_constraints_satisfied());
}

// ---- dct phase B ------------------------------------------------------------------

TEST(SuiteSim, DctBEmitsConstrainedValidPulses) {
  Synthesized s("dct_b");
  Stimulus stim;
  stim.set(s.design, "run", 0, 1);
  stim.set(s.design, "run", 1, 0);
  stim.set(s.design, "dready", 0, 1);
  stim.set(s.design, "cin", 0, 5);
  for (graph::Weight c = 0; c < 6000; c += 8) {
    stim.set(s.design, "cvalid", c + 4, 1);
    stim.set(s.design, "cvalid", c + 8, 0);
  }
  Simulator sim(s.design, s.result, stim);
  SimOptions opts;
  opts.max_cycles = 80000;
  const auto r = sim.run(opts);
  ASSERT_FALSE(r.timed_out);
  int dvalid_pulses = 0;
  for (const auto& [cycle, value] :
       r.port_writes.at(*s.design.find_port("dvalid"))) {
    if (value == 1) ++dvalid_pulses;
  }
  EXPECT_GE(dvalid_pulses, 8);  // one per coefficient (plus zero marker)
  int col_done = 0;
  for (const auto& [cycle, value] :
       r.port_writes.at(*s.design.find_port("col_done"))) {
    if (value == 1) ++col_done;
  }
  EXPECT_EQ(col_done, 1);
  // The 1..2-cycle dout-to-dvalid window held on every coefficient.
  EXPECT_TRUE(r.all_constraints_satisfied());
}

// ---- frisc with a reactive memory model ---------------------------------------------

/// Memory + handshake agent for the frisc CPU: responds to rd/wr with
/// ready two cycles after the strobe rises, serves ibus from a small
/// RAM, and commits stores when wr rises.
class MemoryModel : public Environment {
 public:
  MemoryModel(const seq::Design& design, std::map<int, std::int64_t> image)
      : mem_(std::move(image)) {
    ibus_ = *design.find_port("ibus");
    ready_ = *design.find_port("ready");
    addr_ = *design.find_port("addr");
    rd_ = *design.find_port("rd");
    wr_ = *design.find_port("wr");
    obus_ = *design.find_port("obus");
  }

  void on_port_write(PortId port, graph::Weight cycle,
                     std::int64_t value) override {
    timeline_[port].emplace_back(cycle, value);
    if (port == wr_ && value != 0) {
      // Commit the store: latest addr/obus values as of this cycle.
      mem_[static_cast<int>(level(addr_, cycle))] = level(obus_, cycle);
      ++stores_;
    }
    if (port == rd_ && value != 0) ++loads_;
  }

  std::optional<std::int64_t> drive(PortId port, graph::Weight cycle) override {
    if (port == ready_) {
      // Ready two cycles after either strobe rose (and still high).
      return (strobe_age(rd_, cycle) >= 2 || strobe_age(wr_, cycle) >= 2) ? 1
                                                                          : 0;
    }
    if (port == ibus_) {
      const auto it = mem_.find(static_cast<int>(level(addr_, cycle)));
      return it == mem_.end() ? 0 : it->second;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::int64_t mem(int address) const {
    const auto it = mem_.find(address);
    return it == mem_.end() ? 0 : it->second;
  }
  [[nodiscard]] int stores() const { return stores_; }
  [[nodiscard]] int loads() const { return loads_; }

 private:
  [[nodiscard]] std::int64_t level(PortId port, graph::Weight cycle) const {
    const auto it = timeline_.find(port);
    if (it == timeline_.end()) return 0;
    std::int64_t value = 0;
    graph::Weight best = -1;
    for (const auto& [c, v] : it->second) {
      if (c <= cycle && c >= best) {
        best = c;
        value = v;
      }
    }
    return value;
  }

  /// Cycles since `port` last rose to nonzero, or -1 when currently low.
  [[nodiscard]] graph::Weight strobe_age(PortId port,
                                         graph::Weight cycle) const {
    const auto it = timeline_.find(port);
    if (it == timeline_.end()) return -1;
    graph::Weight rise = -1;
    std::int64_t current = 0;
    for (const auto& [c, v] : it->second) {
      if (c > cycle) break;
      if (v != 0 && current == 0) rise = c;
      current = v;
    }
    return current != 0 && rise >= 0 ? cycle - rise : -1;
  }

  std::map<int, std::int64_t> mem_;
  std::map<PortId, std::vector<std::pair<graph::Weight, std::int64_t>>>
      timeline_;
  PortId ibus_, ready_, addr_, rd_, wr_, obus_;
  int stores_ = 0;
  int loads_ = 0;
};

constexpr int kLdi = 0, kLd = 1, kSt = 2, kAddi = 3, kSubi = 4, kJmp = 10,
              kJz = 11, kMuli = 12, kOut = 14, kHalt = 15;

std::int64_t instr(int opcode, int operand = 0) {
  return (static_cast<std::int64_t>(opcode) << 12) | operand;
}

TEST(SuiteSim, FriscExecutesStraightLineProgram) {
  Synthesized s("frisc");
  MemoryModel memory(s.design, {
                                   {0, instr(kLdi, 5)},
                                   {1, instr(kAddi, 3)},
                                   {2, instr(kSt, 100)},
                                   {3, instr(kMuli, 6)},
                                   {4, instr(kOut)},
                                   {5, instr(kHalt)},
                               });
  Simulator sim(s.design, s.result, Stimulus{});
  sim.set_environment(&memory);
  SimOptions opts;
  opts.max_cycles = 100000;
  const auto r = sim.run(opts);
  ASSERT_FALSE(r.timed_out);
  EXPECT_EQ(memory.mem(100), 8);  // 5 + 3 stored
  // OUT drove acc = 8 * 6 = 48 on obus.
  const auto& obus = r.port_writes.at(*s.design.find_port("obus"));
  ASSERT_FALSE(obus.empty());
  EXPECT_EQ(obus.back().second, 48);
  EXPECT_EQ(memory.stores(), 2);  // ST + OUT both strobe wr
}

TEST(SuiteSim, FriscLoadsFromMemory) {
  Synthesized s("frisc");
  MemoryModel memory(s.design, {
                                   {0, instr(kLd, 200)},
                                   {1, instr(kAddi, 1)},
                                   {2, instr(kSt, 201)},
                                   {3, instr(kHalt)},
                                   {200, 41},
                               });
  Simulator sim(s.design, s.result, Stimulus{});
  sim.set_environment(&memory);
  SimOptions opts;
  opts.max_cycles = 100000;
  const auto r = sim.run(opts);
  ASSERT_FALSE(r.timed_out);
  EXPECT_EQ(memory.mem(201), 42);
}

TEST(SuiteSim, FriscCountdownLoopWithBranches) {
  // acc = 3; do { acc -= 1 } while (acc != 0); store acc.
  Synthesized s("frisc");
  MemoryModel memory(s.design, {
                                   {0, instr(kLdi, 3)},
                                   {1, instr(kSubi, 1)},
                                   {2, instr(kJz, 4)},
                                   {3, instr(kJmp, 1)},
                                   {4, instr(kSt, 300)},
                                   {5, instr(kHalt)},
                               });
  Simulator sim(s.design, s.result, Stimulus{});
  sim.set_environment(&memory);
  SimOptions opts;
  opts.max_cycles = 200000;
  const auto r = sim.run(opts);
  ASSERT_FALSE(r.timed_out);
  EXPECT_EQ(memory.mem(300), 0);
  // Three SUB iterations => the loop body fetched repeatedly: at least
  // 10 instruction fetches happened (each fetch strobes rd once).
  EXPECT_GE(memory.loads(), 10);
}

}  // namespace
}  // namespace relsched::sim
