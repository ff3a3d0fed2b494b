//===- PlanSerializeTests.cpp - Tests for plan persistence ------------------===//

#include "assoc/Enumerate.h"
#include "assoc/PlanSerialize.h"
#include "assoc/Prune.h"
#include "granii/Granii.h"
#include "graph/Generators.h"
#include "models/Models.h"

#include <gtest/gtest.h>


using namespace granii;

namespace {

std::vector<CompositionPlan> promotedOf(ModelKind Kind) {
  return pruneCompositions(enumerateCompositions(makeModel(Kind).Root));
}

} // namespace

TEST(PlanSerialize, RoundTripPreservesStructure) {
  for (ModelKind Kind : extendedModels()) {
    std::vector<CompositionPlan> Plans = promotedOf(Kind);
    auto Restored = deserializePlans(serializePlans(Plans));
    ASSERT_TRUE(Restored.has_value()) << modelName(Kind);
    ASSERT_EQ(Restored->size(), Plans.size()) << modelName(Kind);
    for (size_t I = 0; I < Plans.size(); ++I) {
      EXPECT_EQ((*Restored)[I].canonicalKey(), Plans[I].canonicalKey());
      EXPECT_EQ((*Restored)[I].Name, Plans[I].Name);
      EXPECT_EQ((*Restored)[I].ViableGe, Plans[I].ViableGe);
      EXPECT_EQ((*Restored)[I].ViableLt, Plans[I].ViableLt);
      EXPECT_EQ((*Restored)[I].Steps.size(), Plans[I].Steps.size());
      for (size_t S = 0; S < Plans[I].Steps.size(); ++S) {
        EXPECT_EQ((*Restored)[I].Steps[S].Setup, Plans[I].Steps[S].Setup);
        EXPECT_DOUBLE_EQ((*Restored)[I].Steps[S].Param,
                         Plans[I].Steps[S].Param);
      }
    }
  }
}

TEST(PlanSerialize, RestoredPlansExecuteIdentically) {
  GnnModel M = makeModel(ModelKind::GCN);
  std::vector<CompositionPlan> Plans = promotedOf(ModelKind::GCN);
  auto Restored = deserializePlans(serializePlans(Plans));
  ASSERT_TRUE(Restored.has_value());

  Graph G = makeErdosRenyi(100, 600, 5);
  LayerParams Params = makeLayerParams(M, G, 8, 12, 3);
  Executor Exec(HardwareModel::byName("cpu"));
  for (size_t I = 0; I < Plans.size(); ++I) {
    DenseMatrix A = Exec.run(Plans[I], Params.inputs(), Params.Stats).Output;
    DenseMatrix B =
        Exec.run((*Restored)[I], Params.inputs(), Params.Stats).Output;
    EXPECT_TRUE(A.approxEquals(B, 0.0f, 0.0f)) << "plan " << I;
  }
}

TEST(PlanSerialize, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(deserializePlans("value dense N Kin 0 0 - H\n", &Error));
  EXPECT_NE(Error.find("outside a plan"), std::string::npos);

  EXPECT_FALSE(deserializePlans("plan p 1 1\nstep nosuchop 0 0x0p+0 0\nend\n",
                                &Error));
  EXPECT_NE(Error.find("unknown step op"), std::string::npos);

  EXPECT_FALSE(deserializePlans("plan p 1 1\n", &Error));
  EXPECT_NE(Error.find("unterminated"), std::string::npos);

  EXPECT_FALSE(deserializePlans("plan p 1 1\nvalue bogus N N 0 0 - A\nend\n",
                                &Error));

  // A plan stamped with a storage format (a removed fifth header field,
  // written only for the ELL, sliced-ELL and hybrid formats).
  EXPECT_FALSE(deserializePlans("plan p 1 1 ell\n"
                                "value dense N Kin 0 0 features H\n"
                                "output 0\n"
                                "end\n",
                                &Error));
  EXPECT_NE(Error.find("malformed plan header"), std::string::npos) << Error;
}

TEST(PlanSerialize, RejectsSemanticallyBrokenPlans) {
  // Use-before-definition must fail recoverably, not abort.
  std::string Text = "plan p 1 1\n"
                     "value dense N Kin 0 0 features H\n"
                     "value dense N Kin 0 0 - _\n"
                     "step relu 1 0x0p+0 0 1\n" // operand 1 == result
                     "output 1\n"
                     "end\n";
  std::string Error;
  EXPECT_FALSE(deserializePlans(Text, &Error));
  EXPECT_NE(Error.find("undefined value"), std::string::npos);
}

TEST(PlanSerialize, ErrorsCarrySourceAndLineContext) {
  // The overflowing step result id sits on line 3; the message must name
  // the default source and that line so a bad file is findable.
  std::string Text = "plan p 1 1\n"
                     "value dense N Kin 0 0 features H\n"
                     "step relu 99999999999999999999 0x0p+0 0 0\n"
                     "output 0\n"
                     "end\n";
  std::string Error;
  EXPECT_FALSE(deserializePlans(Text, &Error));
  EXPECT_NE(Error.find("<plans>:3: "), std::string::npos) << Error;
  EXPECT_NE(Error.find("bad step result id"), std::string::npos) << Error;

  // A caller-supplied source name (the plan file path) replaces the
  // placeholder.
  EXPECT_FALSE(deserializePlans(Text, &Error, "models/gcn.plans"));
  EXPECT_NE(Error.find("models/gcn.plans:3: "), std::string::npos) << Error;
}

TEST(PlanSerialize, RejectsOverflowAndJunkNumericFields) {
  // Every numeric field goes through a checked full-field parse: digits
  // that overflow the target type or carry trailing junk fail recoverably
  // (std::stoi previously threw out of the parser on several of these).
  std::string Error;
  EXPECT_FALSE(deserializePlans("plan p 1 1\n"
                                "value dense N Kin 0 0 features H\n"
                                "step relu 0 0x0p+0 0 88888888888888888888\n"
                                "output 0\n"
                                "end\n",
                                &Error));
  EXPECT_NE(Error.find("bad operand id"), std::string::npos) << Error;

  EXPECT_FALSE(deserializePlans("plan p 1 1\n"
                                "value dense N Kin 0 0 features H\n"
                                "step relu 1x 0x0p+0 0 0\n"
                                "output 1\n"
                                "end\n",
                                &Error));
  EXPECT_NE(Error.find("bad step result id"), std::string::npos) << Error;

  EXPECT_FALSE(deserializePlans("plan p 1 1\n"
                                "value dense N Kin 0 0 features H\n"
                                "output 999999999999999999999999\n"
                                "end\n",
                                &Error));
  EXPECT_NE(Error.find("malformed output record"), std::string::npos)
      << Error;
}

TEST(PlanSerialize, RejectsBadConstantDimensions) {
  // Negative and overflowing constants are not valid dimensions.
  for (const char *Dim : {"-3", "99999999999999999999999", "12cols"}) {
    std::string Text = std::string("plan p 1 1\n") + "value dense " + Dim +
                       " Kin 0 0 features H\n"
                       "output 0\n"
                       "end\n";
    std::string Error;
    EXPECT_FALSE(deserializePlans(Text, &Error)) << Dim;
    EXPECT_NE(Error.find("bad value field"), std::string::npos)
        << Dim << " produced: " << Error;
  }
}

TEST(PlanSerialize, TruncatedFileFailsWithLineContext) {
  std::string Text = "plan p 1 1\n"
                     "value dense N Kin 0 0 features H\n"
                     "step relu 1 0x0p+0 0 0"; // no end record, no newline
  std::string Error;
  EXPECT_FALSE(deserializePlans(Text, &Error));
  EXPECT_NE(Error.find("unterminated plan record"), std::string::npos)
      << Error;
  EXPECT_NE(Error.find("<plans>:3"), std::string::npos) << Error;
}

TEST(PlanSerialize, EmptyInputYieldsEmptySet) {
  auto Restored = deserializePlans("");
  ASSERT_TRUE(Restored.has_value());
  EXPECT_TRUE(Restored->empty());
}

TEST(OptimizerPersistence, SaveAndLoadCompiled) {
  GnnModel M = makeModel(ModelKind::GCN);
  OptimizerOptions Opts;
  Opts.Hw = HardwareModel::byName("h100");
  AnalyticCostModel Cost(Opts.Hw);
  Optimizer Original(M, Opts, &Cost);

  std::optional<std::vector<CompositionPlan>> Plans =
      deserializePlans(serializePlans(Original.promoted()));
  ASSERT_TRUE(Plans.has_value());
  Optimizer Loaded =
      Optimizer::fromCompiled(M, Opts, &Cost, std::move(*Plans));
  ASSERT_EQ(Loaded.promoted().size(), Original.promoted().size());

  // Selections agree on a spread of inputs.
  for (const Graph &G :
       {makeMycielskian(9), makeRoadLattice(20, 20, 0.0, 1)}) {
    for (auto [KIn, KOut] : {std::pair<int, int>{32, 32}, {32, 128}}) {
      Selection A = Original.select(G, KIn, KOut);
      Selection B = Loaded.select(G, KIn, KOut);
      EXPECT_EQ(A.PlanIndex, B.PlanIndex) << G.name();
      EXPECT_EQ(Original.promoted()[A.PlanIndex].canonicalKey(),
                Loaded.promoted()[B.PlanIndex].canonicalKey());
    }
  }
}
