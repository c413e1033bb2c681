// f3d::tune — registry bind/round-trip and strict-load semantics, the
// three search strategies (seeded reproducibility, gate enforcement,
// degenerate spaces), the tuning DB's safe-fallback contract, and one
// real-solve SolveLab pass (bit-identity gate + broken-config rejection).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cfd/euler.hpp"
#include "common/error.hpp"
#include "mesh/generator.hpp"
#include "solver/newton.hpp"
#include "tune/bindings.hpp"
#include "tune/db.hpp"
#include "tune/lab.hpp"
#include "tune/registry.hpp"
#include "tune/search.hpp"

namespace {

using namespace f3d;

// A small struct standing in for the solver option structs.
struct ToyOptions {
  int restart = 20;
  double rtol = 1e-3;
  bool fused = false;
  enum class Color { kRed, kGreen, kBlue };
  Color color = Color::kGreen;

  void bind(tune::Registry& reg) {
    reg.add_int("toy.restart", &restart, 4, 200, "restart length");
    reg.add_double("toy.rtol", &rtol, 1e-6, 0.5, "linear tolerance");
    reg.add_bool("toy.fused", &fused, "fused kernel toggle");
    reg.add_enum("toy.color", &color, {"red", "green", "blue"}, "a choice");
  }
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// ---------------------------------------------------------------- registry

TEST(TuneRegistry, BindRegistersTypedKnobs) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);
  ASSERT_EQ(reg.size(), 4);
  EXPECT_EQ(reg.at("toy.restart").kind, tune::KnobKind::kInt);
  EXPECT_EQ(reg.at("toy.rtol").kind, tune::KnobKind::kDouble);
  EXPECT_TRUE(reg.at("toy.rtol").log_scale);  // 0.5 / 1e-6 spans decades
  EXPECT_EQ(reg.at("toy.fused").kind, tune::KnobKind::kBool);
  EXPECT_EQ(reg.at("toy.color").kind, tune::KnobKind::kEnum);
  EXPECT_EQ(reg.find("toy.nope"), nullptr);
  EXPECT_THROW((void)reg.at("toy.nope"), Error);
}

TEST(TuneRegistry, SettersWriteThroughToStruct) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);
  reg.set_number("toy.restart", 60);
  reg.set_number("toy.fused", 1);
  reg.set_number("toy.color", 2);
  EXPECT_EQ(toy.restart, 60);
  EXPECT_TRUE(toy.fused);
  EXPECT_EQ(toy.color, ToyOptions::Color::kBlue);
}

TEST(TuneRegistry, SetNumberClampsIntoRange) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);
  reg.set_number("toy.restart", 100000);
  EXPECT_EQ(toy.restart, 200);
  reg.set_number("toy.restart", -3);
  EXPECT_EQ(toy.restart, 4);
  reg.set_number("toy.color", 99);
  EXPECT_EQ(toy.color, ToyOptions::Color::kBlue);  // clamped to last choice
}

TEST(TuneRegistry, JsonRoundTripIsExact) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);
  reg.set_number("toy.rtol", 3.333333333333333e-4);
  reg.set_number("toy.color", 0);
  obs::Json dump = reg.to_json();

  ToyOptions toy2;
  tune::Registry reg2;
  toy2.bind(reg2);
  reg2.from_json(obs::parse_json(dump.dump()));
  EXPECT_EQ(toy2.restart, toy.restart);
  EXPECT_EQ(toy2.rtol, toy.rtol);  // %.17g round-trip: bit-exact
  EXPECT_EQ(toy2.fused, toy.fused);
  EXPECT_EQ(toy2.color, toy.color);
  EXPECT_EQ(reg2.to_json().dump(), dump.dump());
}

TEST(TuneRegistry, FromJsonRejectsOutOfRangeAndLeavesStateUntouched) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);
  obs::Json bad = obs::Json::object();
  bad.set("toy.restart", 50).set("toy.rtol", 0.9);  // rtol above max
  EXPECT_THROW(reg.from_json(bad), Error);
  EXPECT_EQ(toy.restart, 20);  // nothing applied, not even the valid member
  EXPECT_EQ(toy.rtol, 1e-3);
}

TEST(TuneRegistry, FromJsonRejectsUnknownKnobAndTypeMismatch) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);
  obs::Json unknown = obs::Json::object();
  unknown.set("toy.imaginary", 1);
  EXPECT_THROW(reg.from_json(unknown), Error);

  obs::Json mismatch = obs::Json::object();
  mismatch.set("toy.restart", 12.5);  // int knob, double value
  EXPECT_THROW(reg.from_json(mismatch), Error);

  obs::Json bad_choice = obs::Json::object();
  bad_choice.set("toy.color", "magenta");
  EXPECT_THROW(reg.from_json(bad_choice), Error);

  EXPECT_EQ(toy.restart, 20);
  EXPECT_EQ(toy.color, ToyOptions::Color::kGreen);
}

TEST(TuneRegistry, SubsetLoadAndResetDefaults) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);
  obs::Json subset = obs::Json::object();
  subset.set("toy.fused", true);
  reg.from_json(subset);
  EXPECT_TRUE(toy.fused);
  EXPECT_EQ(toy.restart, 20);  // untouched members keep their values
  reg.reset_defaults();
  EXPECT_FALSE(toy.fused);
  EXPECT_EQ(toy.restart, 20);
}

TEST(TuneRegistry, DuplicateNameRejected) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);
  int extra = 0;
  EXPECT_THROW(reg.add_int("toy.restart", &extra, 0, 1, "dup"), Error);
}

TEST(TuneRegistry, SolverStructsBindTheDocumentedSpace) {
  solver::PtcOptions ptc;
  tune::Registry reg;
  ptc.bind(reg);
  tune::bind_exec_threads(reg);
  tune::bind_simd(reg);
  // The ptc/gmres/schwarz + process-global space: 10 + 4 + 6 + 2 knobs.
  EXPECT_EQ(reg.size(), 22);
  // Knob writes land in the nested structs.
  reg.set_number("gmres.restart", 44);
  reg.set_number("schwarz.overlap", 1);
  reg.set_number("ptc.checkpoint_every", 7);
  EXPECT_EQ(ptc.gmres.restart, 44);
  EXPECT_EQ(ptc.schwarz.overlap, 1);
  EXPECT_EQ(ptc.recovery.checkpoint_every, 7);
  // Every knob's catalog record names itself and documents itself.
  for (const auto& k : reg.knobs()) {
    EXPECT_FALSE(k.name.empty());
    EXPECT_FALSE(k.doc.empty());
  }
}

// ------------------------------------------------------------------ search

// Deterministic synthetic evaluator: quadratic bowl over two knobs with
// the optimum away from the defaults. Counts calls.
struct BowlLab {
  double x = 0.0;  // default far from optimum (3.0)
  double y = 0.0;  // optimum at -1.0
  int calls = 0;
  tune::Registry reg;

  BowlLab() {
    reg.add_double("bowl.x", &x, -5.0, 5.0, "x");
    reg.add_double("bowl.y", &y, -5.0, 5.0, "y");
  }

  tune::Evaluator evaluator() {
    return [this](tune::Registry&, int) {
      ++calls;
      tune::TrialOutcome t;
      t.ok = true;
      t.score = (x - 3.0) * (x - 3.0) + (y + 1.0) * (y + 1.0);
      return t;
    };
  }
};

TEST(TuneSearch, RandomSearchImprovesOnBowl) {
  BowlLab lab;
  tune::SearchOptions opts;
  opts.strategy = tune::Strategy::kRandom;
  opts.trials = 32;
  opts.seed = 7;
  auto res = tune::search(lab.reg, {"bowl.x", "bowl.y"}, lab.evaluator(), opts);
  EXPECT_TRUE(res.baseline_ok);
  EXPECT_TRUE(res.improved);
  EXPECT_LT(res.best_score, res.baseline_score);
  // Registry holds the winner on return.
  EXPECT_NEAR(lab.reg.get_number("bowl.x"),
              res.best_config.find("bowl.x")->d, 0);
}

TEST(TuneSearch, HillClimbDescendsTheBowl) {
  BowlLab lab;
  tune::SearchOptions opts;
  opts.strategy = tune::Strategy::kHillClimb;
  opts.trials = 40;
  opts.seed = 3;
  auto res = tune::search(lab.reg, {"bowl.x", "bowl.y"}, lab.evaluator(), opts);
  EXPECT_TRUE(res.improved);
  // Hill climb should get closer to (3, -1) than the (0, 0) start.
  EXPECT_LT(res.best_score, 10.0 * 0.5);
}

TEST(TuneSearch, SeededSearchIsReproducible) {
  for (auto strategy : {tune::Strategy::kRandom, tune::Strategy::kHillClimb,
                        tune::Strategy::kHalving}) {
    tune::SearchOptions opts;
    opts.strategy = strategy;
    opts.trials = 12;
    opts.halving_width = 6;
    opts.seed = 42;
    BowlLab a, b;
    auto ra = tune::search(a.reg, {"bowl.x", "bowl.y"}, a.evaluator(), opts);
    auto rb = tune::search(b.reg, {"bowl.x", "bowl.y"}, b.evaluator(), opts);
    EXPECT_EQ(ra.best_config.dump(), rb.best_config.dump())
        << tune::strategy_name(strategy);
    EXPECT_EQ(ra.best_score, rb.best_score);
    EXPECT_EQ(ra.evaluations, rb.evaluations);
    ASSERT_EQ(ra.history.size(), rb.history.size());
    for (std::size_t i = 0; i < ra.history.size(); ++i)
      EXPECT_EQ(ra.history[i].config.dump(), rb.history[i].config.dump());
  }
}

TEST(TuneSearch, GateFailingConfigsNeverWin) {
  // Evaluator rejects everything except the baseline; score would
  // otherwise improve monotonically with x.
  double x = 0.0;
  int calls = 0;
  tune::Registry reg;
  reg.add_double("k.x", &x, 0.0, 10.0, "x");
  auto evaluate = [&](tune::Registry&, int) {
    ++calls;
    tune::TrialOutcome t;
    t.ok = calls == 1;  // only the baseline passes the gates
    t.score = 100.0 - x;
    t.note = t.ok ? "" : "gate: synthetic failure";
    return t;
  };
  for (auto strategy : {tune::Strategy::kRandom, tune::Strategy::kHillClimb,
                        tune::Strategy::kHalving}) {
    x = 0.0;
    calls = 0;
    tune::SearchOptions opts;
    opts.strategy = strategy;
    opts.trials = 8;
    opts.halving_width = 4;
    auto res = tune::search(reg, {"k.x"}, evaluate, opts);
    EXPECT_FALSE(res.improved) << tune::strategy_name(strategy);
    EXPECT_GT(res.rejected, 0) << tune::strategy_name(strategy);
    // Baseline restored: the rejected high-x proposals must not stick.
    EXPECT_EQ(x, 0.0) << tune::strategy_name(strategy);
  }
}

TEST(TuneSearch, EmptyKnobSpaceIsDegenerateBaselineOnly) {
  BowlLab lab;
  tune::SearchOptions opts;
  opts.strategy = tune::Strategy::kHalving;
  auto res = tune::search(lab.reg, {}, lab.evaluator(), opts);
  EXPECT_FALSE(res.improved);
  EXPECT_EQ(res.evaluations, 1);  // just the baseline
  EXPECT_TRUE(res.baseline_ok);
  EXPECT_FALSE(res.note.empty());
  EXPECT_EQ(lab.reg.get_number("bowl.x"), 0.0);
}

TEST(TuneSearch, SingleCandidateHalvingBracketTerminates) {
  BowlLab lab;
  tune::SearchOptions opts;
  opts.strategy = tune::Strategy::kHalving;
  opts.halving_width = 1;  // bracket is just the baseline slot
  opts.halving_rungs = 1;
  auto res = tune::search(lab.reg, {"bowl.x"}, lab.evaluator(), opts);
  EXPECT_FALSE(res.improved);
  EXPECT_GE(res.evaluations, 1);
}

TEST(TuneSearch, DegenerateHalvingParametersAreGuarded) {
  BowlLab lab;
  tune::SearchOptions opts;
  opts.strategy = tune::Strategy::kHalving;
  opts.halving_width = 0;   // clamped to 1
  opts.halving_rungs = 0;   // clamped to 1
  opts.halving_eta = 0.0;   // clamped to 2.0
  auto res = tune::search(lab.reg, {"bowl.x"}, lab.evaluator(), opts);
  EXPECT_GE(res.evaluations, 1);  // terminated, no division by zero
}

TEST(TuneSearch, UnknownKnobNameThrows) {
  BowlLab lab;
  tune::SearchOptions opts;
  EXPECT_THROW(
      (void)tune::search(lab.reg, {"bowl.zzz"}, lab.evaluator(), opts), Error);
}

TEST(TuneSearch, HalvingBeatsBaselineOnBowl) {
  BowlLab lab;
  tune::SearchOptions opts;
  opts.strategy = tune::Strategy::kHalving;
  opts.halving_width = 16;
  opts.halving_rungs = 3;
  opts.seed = 11;
  auto res = tune::search(lab.reg, {"bowl.x", "bowl.y"}, lab.evaluator(), opts);
  EXPECT_TRUE(res.improved);
  EXPECT_LT(res.best_score, res.baseline_score);
}

// -------------------------------------------------------------------- db

TEST(TuneDb, MeshClassBuckets) {
  EXPECT_EQ(tune::mesh_class_of(2500), "wing-small");
  EXPECT_EQ(tune::mesh_class_of(8000), "wing-medium");
  EXPECT_EQ(tune::mesh_class_of(50000), "wing-large");
  EXPECT_EQ(tune::mesh_class_of(500000), "wing-xl");
}

TEST(TuneDb, SaveLoadLookupRoundTrip) {
  const std::string path = temp_path("tunedb_roundtrip.json");
  tune::Db db;
  tune::DbEntry e;
  e.key = {"wing-small", "avx2", "double"};
  e.config = obs::Json::object();
  e.config.set("gmres.restart", 44).set("gmres.rtol", 1.2345678901234567e-3);
  e.score = 0.125;
  e.baseline_score = 0.25;
  e.strategy = "halving";
  e.evaluations = 17;
  db.put(e);
  ASSERT_TRUE(db.save(path));

  tune::Db loaded = tune::Db::load(path);
  EXPECT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.size(), 1);
  const auto* hit = loaded.lookup(e.key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->config.dump(), e.config.dump());  // bit-exact round-trip
  EXPECT_EQ(hit->score, 0.125);
  EXPECT_EQ(hit->strategy, "halving");
  EXPECT_EQ(loaded.lookup({"wing-xl", "avx2", "double"}), nullptr);
}

TEST(TuneDb, PutReplacesSameKey) {
  tune::Db db;
  tune::DbEntry e;
  e.key = {"wing-small", "avx2", "double"};
  e.score = 1.0;
  db.put(e);
  e.score = 0.5;
  db.put(e);
  EXPECT_EQ(db.size(), 1);
  EXPECT_EQ(db.lookup(e.key)->score, 0.5);
}

TEST(TuneDb, MissingFileFallsBackToEmpty) {
  tune::Db db = tune::Db::load(temp_path("no_such_tunedb.json"));
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.size(), 0);
  EXPECT_FALSE(db.note().empty());
}

TEST(TuneDb, CorruptAndWrongSchemaFilesFallBackToEmpty) {
  const std::string garbage = temp_path("tunedb_garbage.json");
  { std::ofstream(garbage) << "{ not json at all"; }
  tune::Db db1 = tune::Db::load(garbage);
  EXPECT_FALSE(db1.ok());
  EXPECT_EQ(db1.size(), 0);

  const std::string wrong = temp_path("tunedb_wrong_schema.json");
  { std::ofstream(wrong) << "{\"schema\": \"f3d-bench-v1\", \"entries\": []}\n"; }
  tune::Db db2 = tune::Db::load(wrong);
  EXPECT_FALSE(db2.ok());

  const std::string broken_entry = temp_path("tunedb_broken_entry.json");
  {
    std::ofstream(broken_entry)
        << "{\"schema\": \"f3d-tunedb-v1\", \"entries\": [ {\"score\": 1} ]}\n";
  }
  tune::Db db3 = tune::Db::load(broken_entry);
  EXPECT_FALSE(db3.ok());
  EXPECT_EQ(db3.size(), 0);
}

TEST(TuneDb, ApplyHitAppliesAndMissLeavesDefaults) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);

  tune::Db db;
  tune::DbEntry e;
  e.key = {"wing-small", "avx2", "double"};
  e.config = obs::Json::object();
  e.config.set("toy.restart", 64);
  db.put(e);

  std::string note;
  EXPECT_FALSE(tune::apply(reg, db, {"wing-xl", "avx2", "double"}, &note));
  EXPECT_EQ(toy.restart, 20);
  EXPECT_FALSE(note.empty());

  EXPECT_TRUE(tune::apply(reg, db, e.key, &note));
  EXPECT_EQ(toy.restart, 64);
}

TEST(TuneDb, ApplyRejectsInvalidStoredConfig) {
  ToyOptions toy;
  tune::Registry reg;
  toy.bind(reg);

  tune::Db db;
  tune::DbEntry e;
  e.key = {"wing-small", "avx2", "double"};
  e.config = obs::Json::object();
  e.config.set("toy.restart", 64).set("toy.rtol", 123.0);  // out of range
  db.put(e);

  std::string note;
  EXPECT_FALSE(tune::apply(reg, db, e.key, &note));
  EXPECT_EQ(toy.restart, 20);  // nothing applied
  EXPECT_NE(note.find("toy.rtol"), std::string::npos);
}

// ------------------------------------------------------------- solve lab

TEST(TuneLab, DefaultConfigPassesAllGates) {
  tune::SolveLab lab(1500);
  auto outcome = lab.evaluate(/*fidelity=*/0);
  EXPECT_TRUE(outcome.ok) << outcome.note;
  EXPECT_GT(outcome.work_units, 0);
  EXPECT_GT(outcome.score, 0.0);
}

TEST(TuneLab, BrokenConfigIsRejectedByTheGates) {
  tune::SolveLab lab(1500);
  // A hopeless continuation: CFL pinned at 0.5 with no SER growth cannot
  // reach the tolerance inside the fidelity-0 step cap.
  lab.registry().set_number("ptc.cfl0", 0.5);
  lab.registry().set_number("ptc.ser_exponent", 0.0);
  lab.registry().set_number("ptc.cfl_max", 100.0);
  auto outcome = lab.evaluate(/*fidelity=*/0);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.note.find("gate"), std::string::npos);
}

TEST(TuneLab, DbKeyAndSearchSpaceAreRegistered) {
  tune::SolveLab lab(1500);
  auto key = lab.db_key();
  EXPECT_EQ(key.mesh_class, "wing-small");
  EXPECT_EQ(key.precision, "double");
  EXPECT_FALSE(key.host_isa.empty());
  for (const auto& name : tune::SolveLab::default_search_space())
    EXPECT_NE(lab.registry().find(name), nullptr) << name;
}

TEST(TuneLab, DefaultSearchSpaceOmitsReconstructionPrecision) {
  // The lab solves at first order, where no reconstruction operand is
  // stored: the residual is bit-identical with the float-storage flag on
  // and off, so searching over it would only double the space.
  auto m = mesh::generate_wing_mesh(
      mesh::WingMeshConfig{.nx = 6, .ny = 4, .nz = 4});
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfg.order = 1;
  cfd::EulerDiscretization disc_d(m, cfg);
  cfg.reco_single_precision = true;
  cfd::EulerDiscretization disc_f(m, cfg);
  auto q = disc_d.make_freestream_field();
  auto& qd = q.data();
  for (std::size_t i = 0; i < qd.size(); ++i)
    qd[i] += 0.05 * std::sin(0.37 * static_cast<double>(i));
  std::vector<double> rd, rf;
  disc_d.residual(q, rd);
  disc_f.residual(q, rf);
  ASSERT_EQ(rd.size(), rf.size());
  EXPECT_EQ(std::memcmp(rd.data(), rf.data(), rd.size() * sizeof(double)), 0);

  // Still bound (introspection, a caller's own search), like flow.layout.
  tune::SolveLab lab(1500);
  EXPECT_NE(lab.registry().find("flow.reco_single_precision"), nullptr);
  const auto space = tune::SolveLab::default_search_space();
  EXPECT_EQ(std::count(space.begin(), space.end(),
                       "flow.reco_single_precision"),
            0);
}

TEST(TuneLab, PersistedEntryReproducesTunedConfigBitIdentically) {
  tune::SolveLab lab(1500);
  tune::Registry& reg = lab.registry();
  // A hand-"tuned" config (no search needed for the persistence contract).
  reg.set_number("gmres.restart", 28);
  reg.set_number("gmres.rtol", 2.4999999999999998e-3);
  reg.set_number("schwarz.fill_level", 2);
  const std::string tuned_dump = reg.to_json().dump();

  const std::string path = temp_path("tunedb_reproduce.json");
  tune::Db db;
  tune::DbEntry e;
  e.key = lab.db_key();
  e.config = reg.to_json();
  db.put(e);
  ASSERT_TRUE(db.save(path));

  // A second lab (fresh process stand-in) consults the persisted DB.
  tune::SolveLab lab2(1500);
  tune::Db loaded = tune::Db::load(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(tune::apply(lab2.registry(), loaded, lab2.db_key()));
  EXPECT_EQ(lab2.registry().to_json().dump(), tuned_dump);
}

}  // namespace
